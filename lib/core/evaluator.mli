(** The black box the Bayesian optimizer probes (paper §3.2.4): take one
    suggested configuration, train the corresponding model with the ML
    framework, measure the user's objective on held-out data, then generate
    the hardware mapping and query the backend for feasibility. *)

open Homunculus_alchemy
open Homunculus_backends

type artifact = {
  algorithm : Model_spec.algorithm;
  config : Homunculus_bo.Config.t;
  model_ir : Model_ir.t;
  verdict : Resource.verdict;
  objective : float;  (** the spec's metric on its test split, in [0, 1] *)
  pruned : bool;
      (** training was stopped at a successive-halving rung, so [objective]
          reflects a partial epoch budget *)
  epochs_trained : int;
      (** epochs the fit actually ran (0 for non-epoch algorithms) *)
}

(** Process-wide accounting of what trained evaluations cost, split into
    three phases: training, lowering (name/standardization folding +
    objective), and backend estimation. Counters are mutex-guarded
    (evaluations run on pool workers) and deliberately kept out of history
    metadata, so reading them never perturbs a search's determinism.
    [estimates] counts {!Homunculus_alchemy.Platform.estimate} calls on
    trained models; a candidate {!evaluate}'s shape check rejects is not
    charged. *)
module Timing : sig
  type snapshot = {
    evaluations : int;
    estimates : int;
    train_s : float;
    lower_s : float;
    estimate_s : float;
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot
end

val evaluate :
  Homunculus_util.Rng.t ->
  ?prune:Homunculus_bo.Asha.t ->
  ?guard:(epoch:int -> loss:float -> metric:float option -> unit) ->
  Platform.t ->
  Model_spec.t ->
  Model_spec.algorithm ->
  Homunculus_bo.Config.t ->
  artifact
(** Train + map + judge one configuration. Features are standardized with a
    scaler fitted on the training split; the scaler and both standardized
    splits are built once per spec ({!Model_spec.standardized}) and shared
    by every candidate, so an evaluation pays only for its own training.
    DNNs hold out 20% of the training data for early stopping so the test
    split stays untouched during training. A DNN's validation split (every
    epoch) and test split (once) are scored through
    {!Homunculus_ml.Mlp.predict_into} buffers built once per evaluation,
    whose verdicts are {!Homunculus_ml.Mlp.predict_all}'s bits.

    Shape check: a DNN or k-means candidate is first judged on a zero-weight
    model of its exact shape (layer sizes, or k x input width). Every
    backend estimator reads only that shape for these algorithms, so when
    the skeleton is infeasible the trained model would be too: nothing is
    trained, and the artifact carries the skeleton (named after the spec),
    its verdict, objective [0.], [pruned = false] and [epochs_trained = 0].
    {!Timing} is not charged. SVMs and trees always train, since their
    verdict depends on learned values.

    With [?prune], DNN training reports its validation metric to the shared
    rung scheduler at each rung of the candidate's own epoch budget and
    stops early when the scheduler says so; the artifact then carries
    [pruned = true]. Non-DNN algorithms train in one shot and ignore the
    scheduler.

    [?guard] runs at every DNN training epoch, before rung accounting, with
    the epoch's mean training loss and validation metric; the evaluation
    supervisor uses it for divergence detection (non-finite loss) and
    wall-clock budget enforcement — it aborts the evaluation by raising.
    Non-DNN algorithms never call it. *)

val compare_artifacts : artifact -> artifact -> int
(** Total order used to rank search results: feasible before infeasible,
    then fully trained before pruned, then higher objective, then the
    lexicographically smaller configuration string. Because the order is
    total, folding {!better_artifact} over a set of artifacts yields the
    same winner in any order — the parallel search depends on this for
    determinism. *)

val better_artifact : artifact option -> artifact -> artifact option
(** [better_artifact current candidate] keeps the higher-ranked of the two
    under {!compare_artifacts}. *)

val to_bo_evaluation : artifact -> Homunculus_bo.Optimizer.evaluation
(** Objective + feasibility + pruned flag + backend measurements as metadata
    ("params", "latency_ns", "throughput_gpps", "epochs_trained", plus
    per-resource usage). *)
