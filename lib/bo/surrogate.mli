(** Probabilistic surrogate of the black-box objective.

    A random-forest regressor over encoded configurations; the cross-tree
    spread doubles as the predictive uncertainty, exactly as in HyperMapper's
    RF mode (paper §5). The optimizer fits it on the {e feasible} slice of
    the history — infeasible entries carry placeholder objectives (failure
    tags, shape-check rejections), and nothing downstream ever
    consumes an infeasible entry's objective. *)

type t

val fit :
  Homunculus_util.Rng.t ->
  ?n_trees:int ->
  ?pool:Homunculus_par.Par.pool ->
  x:float array array ->
  y:float array ->
  unit ->
  t
(** Default 30 trees, fitted in parallel on [pool] (deterministic at any
    worker count). Empty input yields a constant predictor (mean 0, std 0)
    without consuming the RNG — the optimizer never consults the surrogate
    before a feasible incumbent exists, so the constant is never
    load-bearing. *)

val predict : t -> float array -> float * float
(** Mean and standard deviation of the objective at an encoded point. *)
