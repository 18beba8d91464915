(** A fully connected (dense) layer: [a = act (W x + b)].

    Weights are stored as an [n_out x n_in] matrix so a forward pass is a
    single [Mat.matvec]. Gradient buffers live alongside the parameters and
    are accumulated across a mini-batch, then consumed by the optimizer. *)

open Homunculus_tensor

type t = {
  w : Mat.t;
  b : Vec.t;
  act : Activation.t;
  grad_w : Mat.t;
  grad_b : Vec.t;
}

val create :
  Homunculus_util.Rng.t -> n_in:int -> n_out:int -> act:Activation.t -> t
(** He-style initialization scaled by fan-in; biases start at zero. *)

val of_params : w:Mat.t -> b:Vec.t -> act:Activation.t -> t
(** Wrap existing parameters (not copied) in a layer with fresh zeroed
    gradient buffers — for rebuilding a network from a serialized IR.
    @raise Invalid_argument if [b]'s dimension is not [w]'s row count. *)

val n_in : t -> int
val n_out : t -> int
val param_count : t -> int

val forward : t -> Vec.t -> Vec.t * Vec.t
(** [forward layer x] is [(z, a)]: pre-activation and activation. *)

val backward :
  t -> x:Vec.t -> z:Vec.t -> a:Vec.t -> upstream:Vec.t -> Vec.t
(** Accumulate parameter gradients for one sample and return dL/dx for the
    layer below. [upstream] is dL/da. *)

type workspace = {
  z : Mat.t;  (** batch x n_out: pre-activations *)
  a : Mat.t;  (** batch x n_out: activations *)
  delta : Mat.t;  (** batch x n_out: dL/dz *)
  dx : Mat.t;  (** batch x n_in: dL/dx for the layer below *)
  nz : int array;
      (** batch x n_out: per-row ascending indices where delta <> 0,
          compacted by the ReLU backward arm *)
  nz_cnt : int array;  (** per-row count of live entries in [nz] *)
}
(** Preallocated buffers for the batched fast path, sized once per
    (batch, layer) shape by {!make_workspace} and reused across steps. *)

val make_workspace : t -> batch:int -> workspace

val forward_batch : ?rows:int -> t -> workspace -> x:Mat.t -> unit
(** One [X * W^T] GEMM plus bias broadcast and activation over a whole
    mini-batch ([x] is batch x n_in, row per sample), filling [ws.z] and
    [ws.a]. Row [s] is bit-identical to [forward] on sample [s]: per output
    element the accumulation runs over ascending input index with a single
    accumulator, then adds the bias, exactly like [Mat.matvec]. [?rows]
    (default: all of [x]) restricts the pass to the first [rows] rows; the
    later rows of [ws.z] and [ws.a] keep whatever they held.
    @raise Invalid_argument unless [0 <= rows <= x.rows]. *)

val backward_batch :
  ?need_dx:bool -> t -> workspace -> x:Mat.t -> upstream:Mat.t -> unit
(** Batched backward: computes [ws.delta] from [upstream] (dL/da, batch x
    n_out), accumulates parameter gradients, and leaves dL/dx in [ws.dx].
    Bit-identical to folding {!backward} over the batch rows in ascending
    order — the weight-gradient GEMM is sample-major with the same
    skip-zero-rows rule as [Mat.outer_accum], and the [dx] GEMM matches
    [Mat.matvec_t]'s ascending-row accumulation. [need_dx:false] (for the
    bottom layer, whose dx has no consumer) skips the dx GEMM entirely and
    leaves [ws.dx] stale; parameter gradients are unaffected. *)

val zero_grads : t -> unit
val scale_grads : t -> float -> unit
(** Divide accumulated gradients, e.g. by the batch size. *)

val copy : t -> t
(** Deep copy (fresh parameter and gradient buffers). *)
