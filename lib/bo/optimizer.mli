(** The constrained Bayesian-optimization loop (HyperMapper's core algorithm
    as configured by the paper: uniform random warm-up, random-forest
    surrogate, Expected Improvement weighted by probability of feasibility),
    extended with constant-liar batch proposal so several candidates can be
    evaluated concurrently per surrogate fit. *)

type settings = {
  n_init : int;  (** uniform random warm-up evaluations *)
  n_iter : int;  (** model-guided evaluations after warm-up *)
  pool_size : int;  (** candidates scored per BO iteration *)
  local_search_frac : float;
      (** fraction of the pool drawn as neighbors of the incumbent rather
          than uniformly (exploitation vs exploration) *)
  surrogate_trees : int;
  batch_size : int;
      (** candidates proposed per surrogate fit (constant-liar batching) and
          evaluated concurrently on the worker pool. [1] recovers the
          classic fully-sequential loop; [k > 1] spends the same evaluation
          budget over [k] times fewer surrogate fits. *)
  refit_every : int;
      (** once the history holds more than [refit_threshold] entries, reuse
          the fitted surrogate pair until this many fresh evaluations have
          been committed since the last fit. [1] refits every round (the
          classic loop). *)
  refit_threshold : int;
      (** history length below which the surrogate is refitted every round
          regardless of [refit_every] — early rounds are where each new
          observation moves the model most. *)
}

val default_settings : settings
(** 10 warm-up, 40 guided, pool 200, 0.5 local, 30 trees, batch 1, refit
    every round. *)

val continuation : settings -> replayed:int -> fresh:int -> settings
(** Warm-start entry point for replay-then-continue searches: the settings
    for a re-search that replays [replayed] previously journaled
    evaluations (as supervisor cache hits) and then spends [fresh] {e new}
    guided evaluations. [n_init] is preserved — when [replayed >= n_init]
    every warm-up proposal is a cache hit, so the random-initialization
    phase is effectively skipped — and [n_iter] becomes
    [max 0 (replayed - n_init) + fresh]: the guided prefix the replay
    covers, plus the fresh budget. Because the re-driven optimizer consumes
    the same RNG stream, the resulting history is bit-for-bit the one a
    single longer search would have produced (the warm-start determinism
    contract tested by the autopilot suite).
    @raise Invalid_argument when [fresh < 0]. *)

type evaluation = {
  objective : float;  (** value to maximize, e.g. F1 *)
  feasible : bool;
  pruned : bool;
      (** the evaluation was stopped early at a successive-halving rung;
          [objective] is the partial-budget metric (recorded in the history
          with the same flag, so the surrogate learns from it but the
          incumbent ignores it) *)
  metadata : (string * float) list;
}

type exec =
  | Pool of Homunculus_par.Par.pool
      (** exact evaluations run as [f] on this in-process pool *)
  | Dispatch of ((int * Config.t) array -> evaluation array)
      (** each batch's surviving [(index, config)] pairs (after pre-filter
          skips) are handed over in proposal order and the dispatcher must
          return their evaluations in the same order; [f] is never called.
          Since proposals, pre-filter decisions, and commits all stay on the
          calling domain, the history remains bit-identical to an inline
          run. *)

type observer = {
  on_batch_start : unit -> unit;
      (** fires on the calling domain immediately before each batch of
          evaluations is dispatched (in both phases). A rung scheduler uses
          it to freeze the pruning thresholds a whole batch is judged
          against, which is what keeps pruning decisions independent of
          worker count. *)
  on_commit : int -> History.entry -> unit;
      (** fires with the history length after each entry is committed, in
          proposal order, on the calling domain *)
  on_refit : int -> unit;
      (** fires (with the history length) each time the surrogate pair is
          actually fitted — the refit-cadence benches count these *)
}

val no_observer : observer
(** Every callback a no-op; extend it with [{ no_observer with ... }]. *)

val maximize :
  Homunculus_util.Rng.t ->
  ?settings:settings ->
  ?exec:exec ->
  ?prefilter:(index:int -> Config.t -> evaluation option) ->
  ?observer:observer ->
  Design_space.t ->
  f:(index:int -> Config.t -> evaluation) ->
  History.t
(** Run the full loop and return the evaluation history. The black box [f] is
    called exactly [n_init + n_iter] times (duplicate candidates are replaced
    by fresh uniform samples before evaluation when possible). [index] is the
    0-based position the evaluation will occupy in the returned history,
    fixed at proposal time and therefore identical at any worker count;
    fault-injection plans and journals address candidates by it.

    Exact evaluations run as [exec] says (default [Pool] of
    {!Homunculus_par.Par.default}); surrogate fits and candidate scoring run
    on that pool, or on the default pool under [Dispatch]. [f] may be called
    from pool worker domains, concurrently with other calls within the same
    batch. The result is deterministic: for a fixed seed and settings, the
    returned history is identical at any worker count, because all random
    draws happen sequentially on the caller's RNG and results are committed
    in proposal order.

    [prefilter] is consulted for every proposal, sequentially in proposal
    order on the calling domain, after [observer.on_batch_start] and before
    the batch is dispatched. Returning [Some evaluation] commits that
    evaluation in the candidate's history slot without calling [f] (the
    learned cost model's predicted-infeasible skip); [None] evaluates
    exactly. Because decisions precede dispatch, they depend on the batch
    boundary (a batch-mate's outcome is not yet observable) but never on
    worker scheduling — the ASHA freeze rule, applied to filtering. [index]
    is the same proposal-order history index [f] would have received.

    @raise Invalid_argument if a [Dispatch] returns an array whose length
    differs from the batch's. *)

val random_search :
  Homunculus_util.Rng.t ->
  n:int ->
  Design_space.t ->
  f:(Config.t -> evaluation) ->
  History.t
(** Pure random search baseline for the DSE ablation bench. *)
