(** Learned feasibility/cost pre-filter for the DSE inner loop.

    Every candidate the search evaluates exactly (training + lowering +
    backend estimation) doubles as a free training example for a cheap
    random-forest pair fitted over {e architecture} features — features a
    pure extractor computes from the configuration alone, without training
    anything. Once warmed up, the filter classifies each proposal before it
    is dispatched: candidates it is confident are infeasible skip the exact
    evaluation entirely and enter the history as tagged predicted-infeasible
    entries (ASHA-style — the surrogate's feasibility model still learns the
    region), while everything else falls back to the exact evaluator.

    The contract that keeps the search's result trustworthy:

    - {b Boundary margin}: a candidate is only skipped when the predicted
      probability of feasibility is below [0.5 - margin]. Anything inside
      the margin band (or predicted feasible) is evaluated exactly.
      [margin = infinity] disables skipping entirely — the search is then
      bit-identical to the unfiltered one.
    - {b Never choose a winner on a prediction}: skipping requires a
      feasible incumbent to exist, and a candidate whose predicted objective
      could still beat that incumbent ([mean + winner_sigma * std] not below
      it) is evaluated exactly unless the feasibility probability is below
      the [conviction] floor. Predicted entries are committed as infeasible,
      so they can never out-rank any exactly-evaluated feasible artifact.
    - {b Determinism}: the filter owns a private RNG (refits never perturb
      the search's stream), refits happen at observation time (model state
      is a pure function of the observation sequence, which is what keeps a
      journal-resumed search's decisions identical to the original run's),
      and decisions are made sequentially in proposal order on the calling
      domain — the worker count cannot change them. *)

type settings = {
  margin : float;
      (** skip only when [p_feasible < 0.5 - margin]; [infinity] never
          skips *)
  conviction : float;
      (** feasibility probability below which the winner guard is waived
          (the model is so sure the candidate is infeasible that its
          predicted objective is moot) *)
  min_observations : int;  (** exact evaluations before the filter arms *)
  refit_every : int;  (** refit cadence, in observations *)
  n_trees : int;
  winner_sigma : float;
      (** optimism of the would-be-winner fallback: a skip also requires
          [predicted mean + winner_sigma * std < incumbent] *)
}

val default_settings : settings
(** margin 0.15, conviction 0.02, 12 warm-up observations, refit every 4,
    30 trees, 3-sigma winner guard. *)

type verdict =
  | Exact_required of string  (** reason, for diagnostics *)
  | Predicted_infeasible of { p_feasible : float; predicted_objective : float }

type stats = {
  observations : int;
  consults : int;
  skipped : int;
  boundary : int;  (** consults that fell inside the margin band *)
  winner_guarded : int;  (** skips vetoed by the would-be-winner rule *)
  refits : int;
}

val zero_stats : stats
val merge_stats : stats -> stats -> stats
val stats_summary : stats -> string

type t

val create :
  ?settings:settings ->
  seed:int ->
  features:(Config.t -> float array) ->
  unit ->
  t
(** [features] must be pure, cheap, and fixed-length for the lifetime of the
    filter (e.g. the design-space encoding concatenated with analytic
    architecture/platform features). @raise Invalid_argument when
    [refit_every <= 0] or [min_observations < 2]. *)

val observe :
  t -> config:Config.t -> objective:float -> feasible:bool -> pruned:bool ->
  unit
(** Record one {e exact} evaluation outcome (never a predicted one). Once
    armed, refits the internal models every [refit_every] observations and
    whenever the outcome raises the best feasible objective seen (so the
    winner guard never judges against a stale classifier); feature vectors
    are cached, so refits never re-extract. *)

val classify : t -> Config.t -> verdict
(** Judge one candidate. Read-only with respect to the models (only
    counters mutate), so calling it is side-effect-free for determinism
    purposes. *)

val predicted_evaluation :
  p_feasible:float -> predicted_objective:float -> Optimizer.evaluation
(** The history entry a skipped candidate commits: infeasible, non-pruned,
    tagged with {!predicted_key} / {!prob_key} metadata. *)

val prefilter :
  t -> index:int -> Config.t -> Optimizer.evaluation option
(** {!classify} packaged for {!Optimizer.maximize}'s [?prefilter]
    hook: [Some predicted_evaluation] on a skip, [None] otherwise. Callers
    that journal evaluations should wrap this to bypass the filter for
    replayed records and to journal the predicted commits. *)

val predicted_key : string
(** Metadata tag ([= 1.]) marking predicted-infeasible history entries. *)

val prob_key : string
(** Metadata key carrying the predicted probability of feasibility. *)

val is_predicted : (string * float) list -> bool
(** Does this history-entry metadata carry the {!predicted_key} tag? *)

val stats : t -> stats
val skipped_configs : t -> Config.t list
(** Configurations skipped so far, in decision order — the corpus the
    differential validator re-evaluates exactly. *)
