(** Reference interpreter for {!Model_ir} — the semantics the generated
    Spatial/P4 pipelines must implement.

    The optimization core trains models with the ML framework, but the code
    generators consume only the IR. Interpreting the IR directly gives a
    backend-independent oracle: for any input, the class the emitted hardware
    pipeline would produce. The test suite uses it to prove IR extraction
    preserved the trained model's decisions exactly. *)

val scores : Model_ir.t -> float array -> float array
(** Raw per-output scores: logits for DNNs, negated squared distances for
    KMeans (so argmax = nearest centroid), margins for SVMs, class
    distribution for trees. @raise Invalid_argument on dimension mismatch. *)

val predict : Model_ir.t -> float array -> int
(** [argmax (scores model x)] — the class/cluster the data plane reports. *)

val predict_all : Model_ir.t -> float array array -> int array

val mlp_of_ir : Model_ir.t -> Homunculus_ml.Mlp.t option
(** Rebuild a batched-inference MLP from a DNN IR ([None] for the MAT
    families), so serving loops can drain whole batches through the
    training engine's fused kernels instead of per-sample {!predict}: the
    engine's Reference drain calls {!Homunculus_ml.Mlp.predict_into} on one
    workspace it owns, which is bit-identical to
    {!Homunculus_ml.Mlp.predict_all}.
    Decisions agree with {!predict} up to summation order: the reference
    interpreter seeds each neuron's accumulator with the bias, the GEMM
    adds it after the products, so logits can differ in the last ulp and
    an exactly-tied argmax can in principle resolve differently.
    @raise Invalid_argument on an activation name {!scores} would also
    reject. *)

val quantize_weights : Model_ir.t -> bits:int -> Model_ir.t
(** Fixed-point quantization of all trained parameters to [bits] fractional
    bits — the precision the Spatial backend deploys ([FixPt] in the emitted
    code, 16 fractional bits by default). Use with {!predict} to measure
    deployment-precision accuracy loss. @raise Invalid_argument unless
    [1 <= bits <= 52]. *)
