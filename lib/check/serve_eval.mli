(** Differential oracle for the serving engine's quantized hot path.

    The engine's steady-state drain classifies through preallocated
    {!Homunculus_backends.Runtime} workspaces; this module re-derives every
    traced verdict from first principles — a fresh
    [encode_into] + [lookup] against the table generation (epoch) that
    served the packet — and demands {e exact} equality. Unlike
    {!Oracle}'s quantization-tolerance rules, there is no excusable gap
    here: both sides run the same fixed-point semantics, so any mismatch
    is a bug in the drain's buffer reuse, batching, or swap atomicity.

    Tolerance rule: none. Verdicts must be bit-identical packet-for-packet,
    including packets served across a mid-trace hot-swap (the trace's epoch
    stamp selects the matching entry of {!Engine.epoch_runtimes}). *)

type mismatch = {
  index : int;  (** position in the engine's service-order trace *)
  epoch : int;  (** table generation that served the packet *)
  engine_verdict : int;
  replay_verdict : int;
}

type replay = {
  replayed : int;  (** traced packets re-derived *)
  mismatches : mismatch list;  (** service order; empty = bit-identical *)
}

val replay_quantized : Homunculus_serve.Engine.t -> replay
(** Replay the engine's recorded trace through pure
    {!Homunculus_backends.Runtime.encode_into} +
    {!Homunculus_backends.Runtime.lookup} on fresh workspaces, one per
    epoch, and collect every verdict disagreement. Run it after the
    serving run completes (the trace and the epoch table are final); the
    replay shares the engine's runtime values, so KMeans
    {!Homunculus_backends.Runtime.miss_count} accounting advances.
    @raise Invalid_argument on a Reference-mode engine or a trace whose
    epoch stamps do not match the engine's swap history. *)

val sweep_mismatches : Homunculus_serve.Engine.t list -> int
(** A loadgen sweep's replay gate: {!replay_quantized}'s mismatches summed
    over the [Quantized] engines, [Reference] ones skipped. *)

type agreement = {
  compared : int;
  agreed : int;
  rate : float;  (** [1.] on an empty trace *)
}

val agreement :
  Homunculus_serve.Engine.trace -> Homunculus_serve.Engine.trace -> agreement
(** Packet-for-packet verdict agreement between two traces of the same
    event stream (e.g. Reference vs Quantized mode) — the
    quantization-fidelity readout of a serving run. @raise
    Invalid_argument when the traces cover different packet counts. *)
