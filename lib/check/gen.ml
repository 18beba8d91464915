module Rng = Homunculus_util.Rng
module Model_ir = Homunculus_backends.Model_ir
module Decision_tree = Homunculus_ml.Decision_tree

type family = Mlp | Tree | Forest | Svm | Kmeans

let all_families = [ Mlp; Tree; Forest; Svm; Kmeans ]

let family_to_string = function
  | Mlp -> "mlp"
  | Tree -> "tree"
  | Forest -> "forest"
  | Svm -> "svm"
  | Kmeans -> "kmeans"

let batch rng ~n ~dim ~lo ~hi =
  Array.init n (fun _ -> Array.init dim (fun _ -> Rng.uniform rng lo hi))

let batch_size rng = 16 + Rng.int rng 25 (* 16..40 inputs per case *)

(* MLP: random shapes and hidden activations; Glorot-ish weight magnitudes
   keep pre-activations in a range where sigmoid/tanh are not all saturated. *)

let activations = [| "relu"; "sigmoid"; "tanh"; "linear" |]

let gen_mlp rng =
  let input_dim = 1 + Rng.int rng 8 in
  let n_hidden = Rng.int rng 3 in
  let n_classes = 2 + Rng.int rng 3 in
  let dims =
    Array.concat
      [
        [| input_dim |];
        Array.init n_hidden (fun _ -> 1 + Rng.int rng 8);
        [| n_classes |];
      ]
  in
  let layers =
    Array.init
      (Array.length dims - 1)
      (fun i ->
        let n_in = dims.(i) and n_out = dims.(i + 1) in
        let sigma = 1. /. sqrt (float_of_int n_in) in
        {
          Model_ir.n_in;
          n_out;
          activation =
            (if i = Array.length dims - 2 then "linear"
             else Rng.choice rng activations);
          weights =
            Array.init n_out (fun _ ->
                Array.init n_in (fun _ -> Rng.gaussian rng ~sigma ()));
          biases = Array.init n_out (fun _ -> Rng.gaussian rng ~sigma:0.3 ());
        })
  in
  let model = Model_ir.Dnn { name = "m"; layers } in
  let inputs = batch rng ~n:(batch_size rng) ~dim:input_dim ~lo:(-4.) ~hi:4. in
  { Case.model; inputs }

(* Tree: random split structure. Thresholds and inputs stay within the 8.8
   key range so quantized comparisons never saturate. *)

let gen_leaf rng ~n_classes =
  let d = Array.init n_classes (fun _ -> Rng.float rng 1.) in
  let s = Array.fold_left ( +. ) 0. d in
  let d = if s = 0. then Array.make n_classes (1. /. float_of_int n_classes)
          else Array.map (fun v -> v /. s) d in
  Decision_tree.Leaf { distribution = d }

let rec gen_node rng ~depth ~n_features ~n_classes =
  if depth <= 0 || Rng.bernoulli rng 0.25 then gen_leaf rng ~n_classes
  else
    Decision_tree.Split
      {
        feature = Rng.int rng n_features;
        threshold = Rng.uniform rng (-20.) 20.;
        left = gen_node rng ~depth:(depth - 1) ~n_features ~n_classes;
        right = gen_node rng ~depth:(depth - 1) ~n_features ~n_classes;
      }

let gen_tree rng =
  let n_features = 1 + Rng.int rng 6 in
  let n_classes = 2 + Rng.int rng 3 in
  let depth = 2 + Rng.int rng 4 in
  (* Force at least one split so the case exercises threshold comparisons. *)
  let root =
    Decision_tree.Split
      {
        feature = Rng.int rng n_features;
        threshold = Rng.uniform rng (-20.) 20.;
        left = gen_node rng ~depth:(depth - 1) ~n_features ~n_classes;
        right = gen_node rng ~depth:(depth - 1) ~n_features ~n_classes;
      }
  in
  let model = Model_ir.Tree { name = "m"; root; n_features; n_classes } in
  let inputs = batch rng ~n:(batch_size rng) ~dim:n_features ~lo:(-25.) ~hi:25. in
  { Case.model; inputs }

(* Forest: one bagged CART tree fitted on synthetic blob data — realistic
   thresholds (they sit at data midpoints) versus [gen_tree]'s structural
   randomness. *)

let gen_forest_tree rng =
  let n_features = 2 + Rng.int rng 4 in
  let n_classes = 2 + Rng.int rng 2 in
  let centers =
    Array.init n_classes (fun _ ->
        Array.init n_features (fun _ -> Rng.uniform rng (-15.) 15.))
  in
  let sample_of cls =
    Array.init n_features (fun f ->
        centers.(cls).(f) +. Rng.gaussian rng ~sigma:2.5 ())
  in
  let n = 120 in
  let y = Array.init n (fun _ -> Rng.int rng n_classes) in
  let x = Array.map sample_of y in
  (* Bootstrap resample: the bagging half of a random forest. *)
  let idx = Array.init n (fun _ -> Rng.int rng n) in
  let xb = Array.map (fun i -> x.(i)) idx in
  let yb = Array.map (fun i -> y.(i)) idx in
  let params =
    {
      Decision_tree.max_depth = 3 + Rng.int rng 5;
      min_samples_leaf = 2;
      m_try = Some (Stdlib.max 1 (n_features / 2));
    }
  in
  let tree =
    Decision_tree.Classifier.fit ~rng:(Rng.split rng) ~params ~x:xb ~y:yb
      ~n_classes ()
  in
  let model =
    Model_ir.Tree
      {
        name = "m";
        root = Decision_tree.Classifier.root tree;
        n_features;
        n_classes;
      }
  in
  let inputs =
    Array.init (batch_size rng) (fun _ -> sample_of (Rng.int rng n_classes))
  in
  { Case.model; inputs }

(* SVM: Gaussian class weights, small biases, inputs bounded so quantized
   votes stay far from 16-bit saturation. *)

let gen_svm rng =
  let dim = 1 + Rng.int rng 8 in
  let n_classes = 2 + Rng.int rng 3 in
  let class_weights =
    Array.init n_classes (fun _ ->
        Array.init dim (fun _ -> Rng.gaussian rng ~sigma:1. ()))
  in
  let biases = Array.init n_classes (fun _ -> Rng.gaussian rng ~sigma:0.5 ()) in
  let model = Model_ir.Svm { name = "m"; class_weights; biases } in
  let inputs = batch rng ~n:(batch_size rng) ~dim ~lo:(-8.) ~hi:8. in
  { Case.model; inputs }

(* KMeans: signed coordinates, so cells and inputs cross zero, and
   centroids separated by more than twice the default fixed cell half-width
   (2.0 raw units at the 8.8 scale), so cluster cells never overlap and the
   only divergences left are genuine quantization effects. Inputs
   concentrate around centroids, like clustered data. *)

let gen_kmeans rng =
  let dim = 1 + Rng.int rng 6 in
  let k = 2 + Rng.int rng 4 in
  let min_sep = 14. in
  let centroids = Array.make k [||] in
  let placed = ref 0 in
  let attempts = ref 0 in
  while !placed < k && !attempts < 400 do
    incr attempts;
    let c = Array.init dim (fun _ -> Rng.uniform rng (-45.) 45.) in
    let clash = ref false in
    for i = 0 to !placed - 1 do
      let linf =
        Array.fold_left Float.max 0.
          (Array.mapi (fun f v -> Float.abs (v -. centroids.(i).(f))) c)
      in
      if linf < min_sep then clash := true
    done;
    if not !clash then begin
      centroids.(!placed) <- c;
      incr placed
    end
  done;
  (* Rejection sampling can stall in low dimensions: fall back to a
     deterministic lattice with jitter. The lattice replaces every centroid,
     not just the missing ones — a lattice slot could land within the
     separation radius of an already-placed random centroid, and two
     near-coincident centroids have overlapping cluster cells (first-hit-wins
     would then legitimately pick the non-nearest one). Adjacent slots sit
     18 apart with at most 4 of jitter, so L-inf separation stays >= 14. *)
  if !placed < k then
    for i = 0 to k - 1 do
      centroids.(i) <-
        Array.init dim (fun f ->
            let base = -45. +. (float_of_int i *. 18.) in
            base +. Rng.uniform rng 0. 4. +. float_of_int (f mod 2))
    done;
  let model = Model_ir.Kmeans { name = "m"; centroids } in
  let inputs =
    Array.init (batch_size rng) (fun _ ->
        let c = centroids.(Rng.int rng k) in
        Array.map
          (fun v ->
            Float.max (-50.) (Float.min 50. (v +. Rng.gaussian rng ~sigma:1. ())))
          c)
  in
  { Case.model; inputs }

let case rng = function
  | Mlp -> gen_mlp rng
  | Tree -> gen_tree rng
  | Forest -> gen_forest_tree rng
  | Svm -> gen_svm rng
  | Kmeans -> gen_kmeans rng
