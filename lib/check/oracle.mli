(** The differential oracle: push one case through a deployment path and
    compare its verdicts against the floating-point reference
    ({!Homunculus_backends.Inference}) under explicit tolerance rules.

    Tolerance rules, per backend:

    - {b Spatial} (all model families): labels must agree exactly. A
      disagreement is excused only when the reference's top-two scores are
      within a relative [1e-6] near-tie (the interpreter and the reference
      sum dot products in different orders), or — for trees — when the
      sample sits within [2e-6] of a split threshold (the Spatial template
      prints thresholds with [%.6f]).
    - {b Mat_runtime} / {b P4}: the P4 path prints the model's entries
      dump, parses it back, and executes it with
      {!Homunculus_backends.Runtime}'s own executor, so both paths share
      one table semantics and one set of rules.
    - {b Mat_runtime} / {b P4} trees: quantization moves every threshold
      and key by at most half a step, so a disagreement is excused only
      when some split of the tree lies within one key unit of the sample;
      a sample that clears every threshold by more than one key unit must
      take the identical path.
    - {b Mat_runtime} / {b P4} SVMs: a disagreement is excused only when
      the reference margin between the two labels is inside the summed
      worst-case fixed-point rounding error of both score rows; a margin
      beyond that bound can only flip if the backend's arithmetic is wrong.
    - {b Mat_runtime} / {b P4} KMeans: cluster cells are a lossy encoding
      of Voronoi regions by design, so the rule is aggregate: batch
      agreement must reach {!kmeans_agreement_floor}. Disagreements under a
      passing rate count as excused.

    Every rule is sound: a reported violation cannot be caused by rounding
    a correct implementation is allowed to do. *)

module Model_ir = Homunculus_backends.Model_ir

type backend = Spatial | Mat_runtime | P4

val all_backends : backend list
val backend_to_string : backend -> string
val backend_of_string : string -> backend option

val applicable : backend -> Model_ir.t -> bool
(** MAT paths (runtime, P4) reject DNNs; Spatial takes every family. *)

val kmeans_agreement_floor : float

type violation = {
  sample : int;  (** index into the case's inputs; [-1] for batch-level *)
  expected : int;
  got : int;
  detail : string;
}

type comparison = {
  backend : backend;
  n_samples : int;
  agreed : int;
  excused : int;
  violations : violation list;
}

val compare : backend -> Case.t -> comparison
(** Backend-level failures (an interpreter rejection, a malformed entries
    dump) are reported as a batch-level violation rather than raised. *)

val violates : backend -> Case.t -> bool
(** [compare] has a non-empty violation list — the shrinker's predicate. *)

type invariant_failure = { invariant : string; detail : string }

val check_invariants : Case.t -> invariant_failure list
(** Backend-independent invariants of one case: {!Homunculus_backends.Ir_io}
    round-trips preserve verdicts bit-exactly and still validate; the IIsy
    resource report grows monotonically with quantization granularity; the
    P4 program declares at least the tables the resource mapping claims;
    the entries dump only targets declared tables; the Spatial program is
    non-trivial. *)
