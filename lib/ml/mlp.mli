(** Multi-layer perceptron (the model family Homunculus searches over for the
    Taurus backend).

    Hidden layers use a configurable activation (ReLU by default); the output
    layer is linear and coupled to a softmax cross-entropy loss, so
    [predict_proba] returns class probabilities. *)

open Homunculus_tensor

type t

val create :
  Homunculus_util.Rng.t ->
  input_dim:int ->
  hidden:int array ->
  output_dim:int ->
  ?hidden_act:Activation.t ->
  unit ->
  t
(** @raise Invalid_argument on non-positive dimensions. *)

val of_layers : Layer.t array -> t
(** Wrap an existing layer stack (not copied) — for rebuilding a network
    from serialized parameters. Each layer keeps its own activation (so
    {!logits_batch} honors it exactly); the reported hidden activation is
    the first layer's. The loss defaults to softmax cross-entropy.
    @raise Invalid_argument on an empty stack or a dimension-chain
    mismatch. *)

val layers : t -> Layer.t array
val layer_sizes : t -> int array
(** [input_dim; hidden...; output_dim]. *)

val hidden_activation : t -> Activation.t
val param_count : t -> int
val loss : t -> Loss.t

val logits : t -> Vec.t -> Vec.t
val predict_proba : t -> Vec.t -> Vec.t
val predict : t -> Vec.t -> int

val logits_batch : t -> float array array -> Mat.t
(** Forward the whole batch through one blocked [X * W^T] product per layer
    (row [i] holds sample [i]'s logits). Bit-identical to mapping {!logits}
    over the rows, but far cheaper for the test-set-sized batches the
    evaluator and validation loop feed it. *)

val predict_all : t -> float array array -> int array
(** Batched argmax over {!logits_batch}. *)

val train_sample : t -> x:Vec.t -> target:Vec.t -> float
(** Run forward + backward for one sample, accumulating gradients into the
    layers; returns the per-sample loss. Call [zero_grads] before a batch and
    feed the layers' gradient buffers to an optimizer afterwards. This is the
    reference path the batched engine is checked against. *)

type workspace = {
  ws_batch : int;  (** row capacity every buffer was sized for *)
  x : Mat.t;  (** batch x input_dim: caller fills rows before [train_batch] *)
  target : Mat.t;  (** batch x n_classes: caller fills one-hot rows *)
  dloss : Mat.t;  (** batch x n_classes: dL/dlogits scratch *)
  row_loss : float array;  (** per-row losses after [train_batch] *)
  layer_ws : Layer.workspace array;
}
(** All buffers for one batched training step, allocated once per
    (batch, architecture) shape by {!make_workspace} and reused across steps
    — the steady-state loop allocates only [n_classes]-sized loss
    temporaries. *)

val make_workspace : t -> batch:int -> workspace
val workspace_batch : workspace -> int

val train_batch : t -> workspace -> unit
(** Fused batched forward + backward over the rows of [ws.x]/[ws.target]:
    accumulates gradients into the layers (like {!train_sample} does) and
    leaves per-row losses in [ws.row_loss]. Bit-identical to calling
    {!train_sample} on each row in ascending order — the documented
    reduction-order contract of the batched engine. *)

val predict_into :
  t -> workspace -> src:float array array -> n:int -> dst:int array -> unit
(** [predict_into t ws ~src ~n ~dst] writes the predicted class of
    [src.(i)] into [dst.(i)] for [i < n] — the serving drain's
    allocation-free counterpart of {!predict_all}. It copies the rows into
    [ws.x] and runs {!Layer.forward_batch} over only those [n] rows, so one
    workspace of batch [b] serves every batch length [0 <= n <= b]. The
    fused kernels perform {!logits_batch}'s operations in the same order and
    the argmax keeps [Stats.argmax]'s rule (strict [>], first index wins),
    so [dst] is bit-identical to [predict_all t (Array.sub src 0 n)].
    Overwrites [ws.x] and the layer workspaces' activations, so it must not
    interleave with a {!train_batch} on the same workspace.
    @raise Invalid_argument unless [n <= workspace_batch ws], [n] is within
    [src] and [dst], every row has the input dimension, and [ws] was made
    for a network of [t]'s shape. *)

val predict_all_into :
  t -> workspace -> src:float array array -> dst:int array -> unit
(** {!predict_into} over every row of [src], one workspace-sized window at
    a time, so a workspace of any batch scores a split of any length
    without allocating: [dst] is bit-identical to [predict_all t src].
    @raise Invalid_argument when [dst] and [src] differ in length, and as
    {!predict_into}. *)

val zero_grads : t -> unit
val scale_grads : t -> float -> unit

val parameter_buffers : t -> float array array
(** Flat views of all trainable parameters, ordered [w0; b0; w1; b1; ...]. *)

val gradient_buffers : t -> float array array
(** Flat views of the matching gradient accumulators. *)

val copy : t -> t
