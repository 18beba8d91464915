(** A software switch runtime for MAT-mapped models: it executes the
    control-plane entries {!P4gen.emit_entries} prints.

    Where {!Inference} evaluates the IR in floating point (what the model
    means), this module executes it the way a Tofino-class pipeline
    actually would: features quantized to signed 16-bit fixed-point keys,
    cluster cells as per-feature range tables with TCAM priority semantics
    (first match wins, nearest quantized centroid on a miss), SVM votes and
    tree thresholds in integer arithmetic. The tables are one
    {!P4_ir.entries} value: {!entries} builds it, {!P4gen.print_entries}
    prints it, and a parsed dump executes here unchanged. The gap between
    this module and {!Inference} is the fidelity the deployment loses to
    quantization and cell-shaped decision regions. *)

type t

val entries :
  ?entries_per_feature:int ->
  ?calibration:float array array ->
  Model_ir.t ->
  P4_ir.entries
(** Build the quantized tables (default granularity 64 cells/feature, the
    {!Iisy} default). [calibration] — a sample of representative raw inputs —
    sets each feature's fixed-point scale so the 16-bit key space covers the
    observed range plus headroom (how real deployments pick quantization
    parameters), and gives each k-means cell the span of the sample points
    its cluster wins; without it, keys use the plain 8.8 encoding, which
    saturates beyond |x| = 128, and cells are [65536 / entries_per_feature]
    keys wide. @raise Invalid_argument when [entries_per_feature <= 0], for
    DNNs — they do not map to MATs; {!Iisy} only costs their binarized
    mapping, and no runtime executes it — and for SVMs whose weight rows
    differ in length. *)

val of_entries : P4_ir.entries -> t
(** Compile entries into the lookup pipeline, with no text in between.
    @raise Invalid_argument when a row's length or a split's feature does
    not fit the scales, cells and centroids (or weights and biases) differ
    in count, or a leaf class is negative. *)

val load :
  ?entries_per_feature:int ->
  ?calibration:float array array ->
  Model_ir.t ->
  t
(** [of_entries (entries ?entries_per_feature ?calibration model)]. *)

val feature_scales : t -> float array
(** The per-feature key scale chosen at load time. *)

val classify : t -> float array -> int
(** Push one feature vector through the table pipeline. Equivalent to
    [encode_into] + [lookup] on a fresh workspace (and implemented that
    way), so [classify] is bit-identical to the allocation-free path. *)

val classify_all : t -> float array array -> int array

(** {2 Allocation-free hot path}

    The serving engine's steady-state drain. A [workspace] owns the key
    buffer one in-flight packet needs; encode then look up on the same
    workspace. Neither step allocates on the OCaml minor heap (asserted by
    a [Gc.minor_words] test), so a preallocated workspace gives a
    GC-silent drain loop. A workspace belongs to exactly one runtime value
    and must not be shared across concurrent drains. *)

type workspace

val make_workspace : t -> workspace
(** Allocate the (reusable) scratch buffers for [encode_into]/[lookup].
    The only allocating call on this path — do it once per engine, not per
    packet. *)

val workspace_keys : workspace -> int array
(** Snapshot of the 16-bit keys written by the most recent [encode_into]
    (a copy — safe to keep). Exposed for differential replay oracles. *)

val encode_into : t -> workspace -> float array -> unit
(** Quantize one feature vector into the workspace's key buffer using the
    runtime's per-feature scales, with the key rounding of {!quantize}; the
    table keys built by {!load} use the same function, and the keys are
    bit-identical to the ones [classify] derives. @raise Invalid_argument
    on dimension mismatch or a workspace from a smaller runtime. *)

val lookup : t -> workspace -> int
(** Table lookup on the keys most recently encoded into [workspace]:
    TCAM first-match over cluster cells (nearest quantized centroid on
    miss, counted in {!miss_count}), integer SVM vote, or quantized tree
    walk. First-match / first-maximum tie-breaking is identical to
    {!classify}. @raise Invalid_argument on a workspace from a smaller
    runtime. *)

val classify_into : t -> workspace -> src:float array array -> n:int -> dst:int array -> unit
(** Drain [src.(0 .. n-1)] through encode+lookup, writing verdicts to
    [dst.(0 .. n-1)]. Allocation-free given a preallocated [dst].
    @raise Invalid_argument if [n] exceeds either array. *)

val miss_count : t -> int
(** KMeans pipelines only: how many packets missed every cluster cell since
    [load] (they take the default step: nearest quantized centroid). 0 for
    SVM/tree pipelines. *)

val fidelity : t -> Model_ir.t -> x:float array array -> float
(** Agreement rate between the table pipeline and the floating-point
    reference {!Inference.predict} on the given inputs. *)

val quantize : float -> int
(** The shared 8.8 fixed-point key encoding: [v *. 256.] rounded half away
    from zero and saturated to the signed 16-bit range, NaN to 0. Every
    finite scaled value with |v| < 2^62, and NaN, keeps the key of the
    earlier [clamp (int_of_float (Float.round v))]; larger values and the
    infinities, which that expression wrapped, now saturate. *)
