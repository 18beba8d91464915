open Homunculus_tensor

type t = {
  layers : Layer.t array;
  hidden_act : Activation.t;
  loss : Loss.t;
  input_dim : int;
}

let create rng ~input_dim ~hidden ~output_dim ?(hidden_act = Activation.Relu) () =
  if input_dim <= 0 || output_dim <= 0 then
    invalid_arg "Mlp.create: non-positive dimension";
  Array.iter
    (fun h -> if h <= 0 then invalid_arg "Mlp.create: non-positive hidden size")
    hidden;
  let dims = Array.concat [ [| input_dim |]; hidden; [| output_dim |] ] in
  let n_layers = Array.length dims - 1 in
  let layers =
    Array.init n_layers (fun i ->
        let act = if i = n_layers - 1 then Activation.Linear else hidden_act in
        Layer.create rng ~n_in:dims.(i) ~n_out:dims.(i + 1) ~act)
  in
  { layers; hidden_act; loss = Loss.Softmax_cross_entropy; input_dim }

let of_layers layers =
  let n = Array.length layers in
  if n = 0 then invalid_arg "Mlp.of_layers: empty layer stack";
  for i = 1 to n - 1 do
    if Layer.n_in layers.(i) <> Layer.n_out layers.(i - 1) then
      invalid_arg "Mlp.of_layers: layer dimension chain mismatch"
  done;
  let hidden_act =
    if n > 1 then layers.(0).Layer.act else Activation.Relu
  in
  { layers; hidden_act; loss = Loss.Softmax_cross_entropy;
    input_dim = Layer.n_in layers.(0) }

let layers t = t.layers

let layer_sizes t =
  Array.append [| t.input_dim |] (Array.map Layer.n_out t.layers)

let hidden_activation t = t.hidden_act

let param_count t =
  Array.fold_left (fun acc l -> acc + Layer.param_count l) 0 t.layers

let loss t = t.loss

let logits t x =
  Array.fold_left (fun input l -> snd (Layer.forward l input)) x t.layers

let predict_proba t x = Loss.probabilities t.loss (logits t x)

let predict t x = Vec.argmax (predict_proba t x)

(* Batched forward pass: one blocked [X * W^T] product per layer instead of
   one matvec per sample. Per output element the accumulation order matches
   [Layer.forward]'s matvec (ascending over the input dimension, then the
   bias), so batched predictions are bit-identical to the per-sample path. *)
let logits_batch t samples =
  Array.fold_left
    (fun acc l ->
      let z = Mat.matmul_nt acc l.Layer.w in
      Mat.add_row_inplace z l.Layer.b;
      Mat.map_inplace (Activation.apply l.Layer.act) z;
      z)
    (Mat.of_rows samples) t.layers

let predict_all t samples =
  if Array.length samples = 0 then [||]
  else begin
    (* Softmax is monotone, so the argmax of the logits is the argmax of
       [predict_proba]. *)
    let out = logits_batch t samples in
    Array.init out.Mat.rows (fun i -> Vec.argmax (Mat.row out i))
  end

let train_sample t ~x ~target =
  (* Forward with caches, then backward through the layer stack. *)
  let n = Array.length t.layers in
  let inputs = Array.make n x in
  let zs = Array.make n [||] in
  let activations = Array.make n [||] in
  let current = ref x in
  for i = 0 to n - 1 do
    inputs.(i) <- !current;
    let z, a = Layer.forward t.layers.(i) !current in
    zs.(i) <- z;
    activations.(i) <- a;
    current := a
  done;
  let out = !current in
  let loss_value = Loss.value t.loss ~logits:out ~target in
  let upstream = ref (Loss.gradient t.loss ~logits:out ~target) in
  for i = n - 1 downto 0 do
    upstream :=
      Layer.backward t.layers.(i) ~x:inputs.(i) ~z:zs.(i) ~a:activations.(i)
        ~upstream:!upstream
  done;
  loss_value

type workspace = {
  ws_batch : int;
  x : Mat.t;
  target : Mat.t;
  dloss : Mat.t;
  row_loss : float array;
  layer_ws : Layer.workspace array;
}

let make_workspace t ~batch =
  if batch <= 0 then invalid_arg "Mlp.make_workspace: batch <= 0";
  let n_out = Layer.n_out t.layers.(Array.length t.layers - 1) in
  {
    ws_batch = batch;
    x = Mat.create batch t.input_dim;
    target = Mat.create batch n_out;
    dloss = Mat.create batch n_out;
    row_loss = Array.make batch 0.;
    layer_ws = Array.map (fun l -> Layer.make_workspace l ~batch) t.layers;
  }

let workspace_batch ws = ws.ws_batch

(* Batched train step over ws.x / ws.target (filled by the caller): one fused
   forward/backward per layer, gradients accumulated into the layers, per-row
   losses left in ws.row_loss. Bit-identical to running [train_sample] over
   the rows in ascending order — see the reduction-order notes on
   [Layer.forward_batch]/[backward_batch] and [Loss.batch]. *)
let train_batch t ws =
  let n = Array.length t.layers in
  let input = ref ws.x in
  for i = 0 to n - 1 do
    Layer.forward_batch t.layers.(i) ws.layer_ws.(i) ~x:!input;
    input := ws.layer_ws.(i).Layer.a
  done;
  Loss.batch t.loss ~logits:!input ~target:ws.target ~grad:ws.dloss
    ~row_loss:ws.row_loss;
  let upstream = ref ws.dloss in
  for i = n - 1 downto 0 do
    let x = if i = 0 then ws.x else ws.layer_ws.(i - 1).Layer.a in
    Layer.backward_batch ~need_dx:(i > 0) t.layers.(i) ws.layer_ws.(i) ~x
      ~upstream:!upstream;
    upstream := ws.layer_ws.(i).Layer.dx
  done

(* Allocation-free batched inference on the training workspace: the rows go
   into [ws.x], the same fused [Layer.forward_batch] kernels run over only
   the first [n] rows, and each row's argmax lands in [dst]. The fused
   bias/activation epilogue performs [logits_batch]'s ops in its order, and
   the argmax keeps [Stats.argmax]'s rule (strict [>], first index wins),
   so verdicts are bit-identical to [predict_all]. No row's verdict depends
   on the other rows of its window, so [predict_all_into]'s windows give
   the same verdicts. *)
let predict_window t ws ~first ~src ~n ~dst =
  if n < 0 || n > ws.ws_batch then
    invalid_arg "Mlp.predict_into: n outside [0, workspace batch]";
  if first < 0 || first + n > Array.length src || first + n > Array.length dst
  then invalid_arg "Mlp.predict_into: n exceeds src or dst";
  let d = t.input_dim and n_layers = Array.length t.layers in
  if ws.x.Mat.cols <> d || Array.length ws.layer_ws <> n_layers then
    invalid_arg "Mlp.predict_into: workspace built for another network";
  let xd = ws.x.Mat.data in
  for i = 0 to n - 1 do
    let row = src.(first + i) in
    if Array.length row <> d then
      invalid_arg "Mlp.predict_into: sample dimension mismatch";
    Array.blit row 0 xd (i * d) d
  done;
  let input = ref ws.x in
  for i = 0 to n_layers - 1 do
    Layer.forward_batch ~rows:n t.layers.(i) ws.layer_ws.(i) ~x:!input;
    input := ws.layer_ws.(i).Layer.a
  done;
  let od = !input.Mat.data and c = !input.Mat.cols in
  for i = 0 to n - 1 do
    let base = i * c in
    let best = ref 0 in
    for j = 1 to c - 1 do
      if Array.unsafe_get od (base + j) > Array.unsafe_get od (base + !best)
      then best := j
    done;
    dst.(first + i) <- !best
  done

let predict_into t ws ~src ~n ~dst = predict_window t ws ~first:0 ~src ~n ~dst

let predict_all_into t ws ~src ~dst =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Mlp.predict_all_into: |src| <> |dst|";
  let first = ref 0 in
  while !first < n do
    let k = Stdlib.min ws.ws_batch (n - !first) in
    predict_window t ws ~first:!first ~src ~n:k ~dst;
    first := !first + k
  done

let zero_grads t = Array.iter Layer.zero_grads t.layers

let scale_grads t alpha = Array.iter (fun l -> Layer.scale_grads l alpha) t.layers

let parameter_buffers t =
  Array.concat
    (Array.to_list
       (Array.map (fun l -> [| l.Layer.w.Mat.data; l.Layer.b |]) t.layers))

let gradient_buffers t =
  Array.concat
    (Array.to_list
       (Array.map (fun l -> [| l.Layer.grad_w.Mat.data; l.Layer.grad_b |]) t.layers))

let copy t = { t with layers = Array.map Layer.copy t.layers }
