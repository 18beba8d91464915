(** Asynchronous successive-halving (ASHA-style) rung scheduler for pruning
    weak candidates early during design-space exploration.

    Candidates train toward their own epoch budget but report their
    validation metric when they reach each {e rung} — a fixed fraction of
    that budget, so metrics at the same rung index are comparable across
    candidates with different budgets. Only candidates in the top
    [keep_frac] of the metrics seen at a rung continue; the rest stop and
    report their partial metric to the BO history with the [pruned] flag, so
    the surrogate still learns from them.

    Determinism contract: decisions compare against thresholds {e frozen} at
    the start of each proposal batch ({!freeze}, wired to the
    [on_batch_start] callback of [Bo.Optimizer.maximize]'s observer).
    Metrics recorded while a batch is in flight only influence the {e next}
    batch, and the threshold
    is computed from a sorted copy of the recorded metrics, so it does not
    depend on the order racing workers called {!record} in. For a fixed seed
    the pruning decisions — and hence the whole search — are identical at any
    worker count. *)

type settings = {
  rung_fractions : float array;
      (** fractions of a candidate's epoch budget at which rungs sit;
          strictly increasing, each in (0, 1) *)
  keep_frac : float;
      (** fraction of candidates that survive each rung, in (0, 1] *)
  min_observations : int;
      (** a rung prunes nothing until it has seen this many metrics (at
          freeze time) — protects the warm-up phase from thin evidence *)
}

val default_settings : settings
(** Rungs at 1/4 and 1/2 of the budget, keep the top half, need 4
    observations before pruning. *)

type t

val create : ?settings:settings -> unit -> t
(** @raise Invalid_argument on malformed settings. *)

val n_rungs : t -> int

val rungs_for : t -> budget:int -> int array
(** Absolute epoch index of each rung for a candidate with this epoch
    budget: [ceil (frac * budget)], capped at [budget]. A candidate reports
    when its epoch index reaches each value; entries equal to [budget] are
    pointless to prune at (nothing left to save) and callers skip them.
    @raise Invalid_argument if [budget <= 0]. *)

val freeze : t -> unit
(** Recompute the per-rung thresholds from all metrics recorded so far. Call
    once per proposal batch, before dispatching it (i.e. from the optimizer
    observer's [on_batch_start]); never while that batch's evaluations are
    running. *)

val record : t -> rung:int -> metric:float -> unit
(** Report a candidate's validation metric at a rung. Thread-safe; called
    from worker domains as candidates reach rungs. *)

val decide : t -> rung:int -> metric:float -> [ `Continue | `Stop ]
(** Judge a candidate against the frozen threshold of [rung]: [`Stop] iff the
    rung had at least [min_observations] metrics at freeze time and [metric]
    is below the top-[keep_frac] cut. Thread-safe (reads only the frozen
    snapshot). *)

val note_epochs : t -> int -> unit
(** Add to the cross-candidate count of training epochs actually run; the
    bench uses this for budget accounting. Thread-safe. *)

val epochs_spent : t -> int

val observations : t -> int array
(** Number of metrics recorded at each rung so far (test hook). *)
