(** Evaluation supervisor: wraps a candidate evaluation with failure
    classification, bounded retry, divergence detection, a wall-clock
    budget, journaling, and replay-based resume. It also carries each
    search scope's winning model to and from the journal's model lines
    ({!record_model}, {!recorded_model}), so a resumed search need not
    retrain its winner.

    The supervisor's contract with the search's determinism guarantee: it
    never consumes randomness, retries reuse the candidate's own
    config-derived seed, and a replay hit returns the recorded evaluation
    verbatim — so a resumed search commits exactly the entries an
    uninterrupted one would, in the same proposal order. *)

module Bo = Homunculus_bo

type failure_class =
  | Divergence  (** non-finite training loss; never retried *)
  | Backend  (** any other exception; retried up to [max_retries] *)
  | Budget  (** per-candidate wall-clock budget exhausted; never retried *)

val class_code : failure_class -> float

val failure_key : string
(** History-metadata key carrying {!class_code} on failure entries. *)

val retries_key : string
(** History-metadata key carrying the number of retries burned. *)

exception Diverged of { epoch : int; last_metric : float option }
exception Timed_out of { elapsed_s : float }

type settings = {
  max_retries : int;  (** extra attempts after the first, [Backend] only *)
  retry_backend : bool;
  budget_s : float option;  (** per-candidate wall-clock budget *)
}

val default_settings : settings
(** one retry for backend failures, no wall-clock budget *)

type context = {
  attempt : int;  (** 0-based attempt number *)
  started : float;
  deadline : float option;
  nan_epoch : int option;
      (** epoch at which a [Nan_loss_on] fault turns the loss NaN *)
  mutable last_metric : float option;
      (** last finite validation metric seen; a divergence failure reports
          it as the partial-budget objective *)
}

val epoch_guard : context -> epoch:int -> loss:float -> metric:float option -> unit
(** Per-epoch check, intended for [Train.fit]'s [on_epoch] hook: records
    the validation metric, then
    @raise Diverged when the loss is NaN/infinite (or a fault says so)
    @raise Timed_out when the wall-clock deadline has passed. The clock is
    monotonic (max-guarded against [gettimeofday] stepping backwards). *)

type t

val create :
  ?settings:settings ->
  ?journal:Journal.t ->
  ?replay:Journal.replay ->
  ?faults:Faultplan.t ->
  unit ->
  t

val supervise :
  t ->
  scope:string ->
  index:int ->
  config:Bo.Config.t ->
  (context -> Bo.Optimizer.evaluation) ->
  Bo.Optimizer.evaluation
(** Run one candidate evaluation under supervision:

    - a replay-cache hit returns the recorded evaluation immediately;
    - otherwise the thunk runs with a fresh {!context} per attempt;
    - {!Diverged} ends the candidate as an infeasible, pruned entry whose
      objective is the last finite validation metric (the surrogate learns
      from the partial observation, the incumbent ignores it);
    - {!Timed_out} ends it as infeasible with objective 0;
    - any other exception is retried up to [max_retries] times, then ends
      it as infeasible ([Out_of_memory], [Stack_overflow], [Sys.Break],
      and {!Faultplan.Killed} propagate instead);
    - the final outcome — success or tagged failure — is appended durably
      to the journal before being returned.

    Failure entries carry [{!failure_key}; {!retries_key}] metadata, so they
    are distinguishable from merely-infeasible evaluations in the history.
    Thread-safe; called concurrently from evaluation-pool workers. *)

val record_model :
  t ->
  scope:string ->
  config:Bo.Config.t ->
  (unit -> Homunculus_util.Json.t) ->
  unit
(** Append the winning model of search [scope] (winner [config]) as a
    journal model line when the supervisor journals; the payload thunk runs
    only then. Not an evaluation: no kill threshold or counter sees it. *)

val recorded_model :
  t -> scope:string -> config:Bo.Config.t -> Homunculus_util.Json.t option
(** The replay's model payload for (scope, config), if the replay carries
    a valid model line for it. *)

val replayed_count : t -> int
val failure_count : t -> int
