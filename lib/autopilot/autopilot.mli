(** Autopilot: drift-triggered incremental re-search with warm-started BO,
    budgets, and graceful degradation.

    The serving loop's {!Homunculus_serve.Monitor} turns accuracy decay into
    drift alarms; the autopilot turns each alarm into one budgeted
    {!Homunculus_core.Compiler.research} run over the updater's recent
    labeled traffic, warm-started from every journal the previous searches
    left behind, and hot-swaps the winner through the
    {!Homunculus_serve.Updater.accepts} margin — unattended.

    {2 Warm start = replay-then-continue}

    Each re-search is a {e generation}: journal [research-NNN.jsonl] in
    [journal_dir], with a [research-NNN.jsonl.done] marker written only when
    the search ran to completion (won or exhausted the space). A search of
    generation [g] merges the replay tables of {e every} journal on disk and
    re-drives the optimizer with the same [seed] under
    {!Homunculus_bo.Optimizer.continuation}[ ~replayed:P ~fresh], where [P]
    is the raw evaluation-record count of the {e completed} generations
    [< g]. The re-derived proposal prefix hits the replay cache (costing
    microseconds, journaling nothing), so warm-up is effectively skipped
    once [P >= n_init] and the whole budget lands on [fresh] strictly-new
    candidates — and because replay hits are free, a warm search reaches its
    fresh candidates measurably sooner than a cold one.

    A journal {e without} its [.done] marker is a crashed or budget-killed
    search: the next alarm {e resumes that generation} — same file, same
    settings (computed from completed journals only), same seed — so the
    resumed run re-derives the identical proposal sequence, replays the
    partial journal as a cache-hit prefix, and completes bit-for-bit the
    history the uninterrupted run would have produced.

    {2 Graceful degradation}

    The incumbent keeps serving throughout: the hook runs between service
    batches and only an accepted challenger changes the data plane. A
    timeout ({!Budget_exhausted}), an infeasible search, or a challenger
    below the {!Homunculus_serve.Updater.accepts} margin leaves the
    incumbent installed and is recorded as an {!event}. Consecutive
    non-installing searches back off exponentially (in monitor windows), on
    top of the monitor's own [cooldown_windows] hysteresis. A simulated
    crash ({!Homunculus_resilience.Faultplan.Killed}) propagates out of the
    serving loop — that is the crash the journals exist to survive. *)

module Compiler = Homunculus_core.Compiler
module Engine = Homunculus_serve.Engine
module Updater = Homunculus_serve.Updater

type config = {
  seed : int;
      (** drives the BO proposal stream and the train/holdout split of every
          generation — deliberately {e not} generation-dependent, so a
          restarted search re-derives the very proposals its journal holds *)
  platform : Homunculus_alchemy.Platform.t;
  spec_name : string;  (** stable spec name; scopes every journal record *)
  algorithms : Homunculus_alchemy.Model_spec.algorithm list;
  n_classes : int;
  bo_settings : Homunculus_bo.Optimizer.settings;
      (** base settings; [n_iter] is overwritten per generation by
          {!Homunculus_bo.Optimizer.continuation} *)
  fresh_evals : int;  (** strictly-new guided evaluations per re-search *)
  budget_s : float option;  (** wall-clock budget per re-search; [None]
                                runs to completion *)
  journal_dir : string;  (** generation journals + [.done] markers *)
  min_examples : int;
      (** decline to search below this many buffered labeled examples *)
  holdout_frac : float;  (** fraction of the snapshot held out as the
                             spec's test split *)
  min_gain : float;  (** {!Homunculus_serve.Updater.accepts} margin *)
  max_retries : int;  (** supervisor retries per candidate *)
  backoff_windows : int;
      (** base of the exponential backoff after a failed search, in monitor
          windows; 0 disables backoff *)
  backoff_max_windows : int;  (** backoff ceiling *)
  faults : Homunculus_resilience.Faultplan.t;
      (** fault injection for the re-search: [kill@N] simulates a crash
          after [N] fresh journal records; [research-timeout@G] forces
          generation [G]'s budget to be already expired (and keeps forcing
          it while generation [G] remains unfinished) *)
}

val default_config :
  platform:Homunculus_alchemy.Platform.t -> journal_dir:string -> config
(** seed 42, spec ["autopilot"], tree-only shortlist (cheap to retrain,
    MAT-mappable for quantized serving), 2 classes, 3 warm-up + 4 fresh
    evaluations, no budget, min 60 examples, 30% holdout, 0.02 margin, 1
    retry, backoff 1 doubling up to 8 windows, no faults. *)

type outcome =
  | Installed of { incumbent_f1 : float; challenger_f1 : float }
      (** the winner cleared the margin and was hot-swapped *)
  | Rejected of { incumbent_f1 : float; challenger_f1 : float }
      (** the search won but the challenger missed the margin; incumbent
          stays *)
  | Budget_exhausted
      (** the deadline passed; the partial journal resumes next alarm *)
  | Infeasible of string  (** the search completed without a feasible model *)
  | Too_few_examples of { have : int; need : int }
      (** updater buffer below [min_examples]; no search ran *)
  | Backing_off of { until_window : int }
      (** inside the post-failure backoff interval; no search ran *)

type event = {
  window : int;  (** monitor window of the triggering drift alarm *)
  reason : string;  (** the alarm's reason *)
  generation : int;  (** generation searched, [-1] when no search ran *)
  outcome : outcome;
  replayed : int;  (** proposals answered from the replay cache *)
  fresh : int;  (** evaluation records appended to this generation *)
  wall_s : float;  (** wall-clock cost of the attempt (0 when no search) *)
}

val outcome_to_string : outcome -> string

val event_to_string : event -> string
(** Deterministic rendering — window, generation, reason, and outcome only.
    [replayed], [fresh], and [wall_s] are omitted on purpose: a resumed run
    replays more (and journals less) than the uninterrupted run it is
    bit-identical to, so drivers print those to stderr and keep stdout
    diff-clean across a kill/resume. *)

type t

val create : config -> t
(** Creates [journal_dir] if missing.
    @raise Invalid_argument on a non-positive [n_classes], [min_examples],
    [fresh_evals < 0], a holdout fraction outside (0, 1), negative backoff,
    or an empty algorithm shortlist. *)

val hook : t -> Updater.t -> Engine.research_hook
(** The drift reaction of a {!Homunculus_serve.Session.Research} session:
    the session's updater supplies the labeled-traffic snapshot each
    re-search trains on. *)

val events : t -> event list
(** Every consumed drift alarm, oldest first. *)

val consecutive_failures : t -> int
(** Non-installing searches since the last install (feeds the backoff). *)

(** {2 Journal-directory introspection (tests, CLI)} *)

val generation_files : dir:string -> (int * string * bool) list
(** The [(generation, path, completed)] triples found in [dir], ascending by
    generation. A missing directory is empty. *)

val journal_path : dir:string -> generation:int -> string
val done_path : string -> string
(** The [.done] marker path for a generation journal path. *)
