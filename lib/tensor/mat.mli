(** Dense row-major float matrices. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array array -> t
(** @raise Invalid_argument on ragged or empty input. *)

val copy : t -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val row : t -> int -> Vec.t
(** Fresh copy of a row. *)

val col : t -> int -> Vec.t
(** Fresh copy of a column. *)

val transpose : t -> t
val matvec : t -> Vec.t -> Vec.t
(** [matvec m v] with [dim v = m.cols]; result has [m.rows] entries. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t m v] computes [transpose m * v] without materializing the
    transpose; [dim v = m.rows]. *)

val matmul : t -> t -> t
(** Cache-blocked product. Large operands are computed against a packed
    (transposed) copy of the right-hand side so both inner streams are
    contiguous; accumulation order per output element matches the textbook
    triple loop, so results are bit-identical to the naive reference. *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b] is [matmul a (transpose b)] without materializing the
    transpose — [b] is already the packed operand. [a] is [m*k], [b] is
    [n*k], the result is [m*n]. This is the natural shape for a batched
    dense-layer forward pass ([X * W^T]). *)

val matmul_nt_into :
  ?rows:int ->
  ?bias:Vec.t ->
  ?post:[ `Copy of t | `Relu of t ] ->
  t ->
  t ->
  out:t ->
  unit
(** {!matmul_nt} writing into a preallocated [m*n] output — the allocation-free
    kernel under the batched training engine's reused workspaces. Only the
    first [rows] rows (default: all [m]) of [a] are multiplied; they
    overwrite the first [rows] rows of [out] (and of a [?post] destination),
    the rest are left untouched — so one batch-sized workspace serves any
    shorter batch. [?bias] (length [n]) is added to each
    output element in the kernel's epilogue, after the whole dot product —
    the same op order as a matvec followed by a bias add — saving a separate
    load/store pass over [out]. [?post] extends the same epilogue with an
    elementwise map into a second [m*n] matrix while the finished value is
    still in a register: [`Copy dst] stores it unchanged (a linear
    activation), [`Relu dst] stores [if v > 0. then v else 0.] — both are
    bit-identical to running the map as a separate pass over [out], minus
    that pass's loads. @raise Invalid_argument on a shape mismatch or
    unless [0 <= rows <= m]. *)

val transpose_into : t -> out:t -> unit
(** Transpose into a preallocated [cols*rows] output. *)

val matmul_into : t -> t -> out:t -> unit
(** [matmul_into a b ~out] is [out <- a * b] ([a : m*k], [b : k*n],
    [out : m*n]) with both operands streamed contiguously, saxpy-style: per
    output element the contributions accumulate over ascending [k] with a
    single accumulator and nothing skipped — with [b] a packed W^T this is
    exactly {!matvec}'s op sequence per row, and the independent per-output
    accumulators avoid the FP-add latency chain of a dot-product form. The
    batched forward kernel. *)

val matmul_nn_into : t -> t -> out:t -> unit
(** [matmul_nn_into a b ~out] is [out <- a * b] ([a : m*k], [b : k*n],
    [out : m*n]) without packing [b]: per output element the sum runs over
    ascending rows of [b] with the same skip-zero-coefficients rule as
    {!matvec_t}, so row [s] of [out] is bit-identical to
    [matvec_t b (row a s)]. This is the batched dL/dx kernel
    ([dx = delta * W]); the zero skip pays off because ReLU deltas are
    frequently exactly zero. *)

val gemm_tn_accum : a:t -> b:t -> acc:t -> unit
(** In-place [acc <- acc + transpose a * b] with [a : s*m], [b : s*n],
    [acc : m*n] — a fused batch of rank-1 updates, sample-major. Rows of [a]
    equal to zero are skipped exactly as {!outer_accum} skips them, so the
    result is bit-identical to folding [outer_accum] over the [s] samples in
    ascending order. This is the batched weight-gradient kernel
    ([grad_w += delta^T X]). *)

val add : t -> t -> t
val add_inplace : t -> t -> unit
(** [add_inplace a b] is [a <- a + b] without allocating. *)

val scale : float -> t -> t
val scale_inplace : float -> t -> unit
val axpy : alpha:float -> x:t -> y:t -> unit
(** In-place [y <- alpha * x + y]. *)

val map : (float -> float) -> t -> t
val map_inplace : (float -> float) -> t -> unit
val add_row_inplace : t -> Vec.t -> unit
(** Add a row vector ([dim v = cols]) to every row in place: the bias
    broadcast of a batched layer forward. *)

val frobenius : t -> float
val outer : Vec.t -> Vec.t -> t
(** [outer u v] has shape [dim u * dim v]. *)

val outer_accum : alpha:float -> u:Vec.t -> v:Vec.t -> acc:t -> unit
(** In-place rank-1 update [acc <- acc + alpha * u v^T]. *)

val n_elements : t -> int
val pp : Format.formatter -> t -> unit
