module Decision_tree = Homunculus_ml.Decision_tree
module Activation = Homunculus_ml.Activation
module Mathx = Homunculus_util.Mathx

(* A plain loop on purpose — this is the oracle: the activation is resolved
   once per layer, and each neuron's accumulator starts at its bias and adds
   the products in ascending input order. The activation is applied inline
   (a call to [Activation.apply] would box every neuron's result). *)
let dense_forward (l : Model_ir.dnn_layer) input =
  if Array.length input <> l.Model_ir.n_in then
    invalid_arg "Inference: layer input dimension mismatch";
  let act = Activation.of_name l.Model_ir.activation in
  let out = Array.make l.Model_ir.n_out 0. in
  for i = 0 to l.Model_ir.n_out - 1 do
    let acc = ref l.Model_ir.biases.(i) in
    let row = l.Model_ir.weights.(i) in
    for j = 0 to l.Model_ir.n_in - 1 do
      acc := !acc +. (row.(j) *. input.(j))
    done;
    let z = !acc in
    out.(i) <-
      (match act with
      | Activation.Relu -> if z > 0. then z else 0.
      | Activation.Sigmoid -> Mathx.sigmoid z
      | Activation.Tanh -> tanh z
      | Activation.Linear -> z)
  done;
  out

let scores model x =
  match model with
  | Model_ir.Dnn { layers; _ } ->
      Array.fold_left (fun input l -> dense_forward l input) x layers
  | Model_ir.Kmeans { centroids; _ } ->
      (* Plain loops, like [dense_forward]: a closure over a captured
         accumulator would box a float per feature. *)
      let out = Array.make (Array.length centroids) 0. in
      for c = 0 to Array.length centroids - 1 do
        let cen = centroids.(c) in
        if Array.length cen <> Array.length x then
          invalid_arg "Inference: centroid dimension mismatch";
        let acc = ref 0. in
        for j = 0 to Array.length cen - 1 do
          let d = x.(j) -. cen.(j) in
          acc := !acc +. (d *. d)
        done;
        out.(c) <- -. !acc
      done;
      out
  | Model_ir.Svm { class_weights; biases; _ } ->
      let out = Array.make (Array.length class_weights) 0. in
      for c = 0 to Array.length class_weights - 1 do
        let w = class_weights.(c) in
        if Array.length w <> Array.length x then
          invalid_arg "Inference: svm dimension mismatch";
        let acc = ref biases.(c) in
        for j = 0 to Array.length w - 1 do
          acc := !acc +. (w.(j) *. x.(j))
        done;
        out.(c) <- !acc
      done;
      out
  | Model_ir.Tree { root; n_features; _ } ->
      if Array.length x <> n_features then
        invalid_arg "Inference: tree dimension mismatch";
      let rec walk = function
        | Decision_tree.Leaf { distribution } -> distribution
        | Decision_tree.Split { feature; threshold; left; right } ->
            if x.(feature) <= threshold then walk left else walk right
      in
      walk root

let predict model x = Homunculus_util.Stats.argmax (scores model x)

let predict_all model xs = Array.map (predict model) xs

(* Rebuild a trainable/batchable MLP from a DNN IR so serving loops can
   drain whole batches through the training engine's fused GEMM kernels
   ([Mlp.predict_into] on a reused workspace, or [Mlp.predict_all]).
   Per-layer activations carry over exactly (both sides resolve the name
   with [Activation.of_name] and compute [Activation.apply]); the one
   semantic gap is summation order — [dense_forward] seeds the accumulator
   with the bias while the GEMM adds it after the products — so logits may
   differ from [scores] in the last ulp. *)
let mlp_of_ir model =
  match model with
  | Model_ir.Kmeans _ | Model_ir.Svm _ | Model_ir.Tree _ -> None
  | Model_ir.Dnn { layers; _ } ->
      let open Homunculus_tensor in
      let to_layer (l : Model_ir.dnn_layer) =
        let w =
          Mat.init l.Model_ir.n_out l.Model_ir.n_in (fun i j ->
              l.Model_ir.weights.(i).(j))
        in
        let b = Array.copy l.Model_ir.biases in
        Homunculus_ml.Layer.of_params ~w ~b
          ~act:(Homunculus_ml.Activation.of_name l.Model_ir.activation)
      in
      Some (Homunculus_ml.Mlp.of_layers (Array.map to_layer layers))

let quantize_weights model ~bits =
  if bits < 1 || bits > 52 then
    invalid_arg "Inference.quantize_weights: bits outside [1, 52]";
  let scale = Float.of_int (1 lsl bits) in
  let q v = Float.round (v *. scale) /. scale in
  Model_ir.map_parameters q model
