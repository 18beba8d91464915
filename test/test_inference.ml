(* The Model_ir reference interpreter and the cycle-level pipeline simulator:
   the interpreter must agree exactly with the trained models the IR was
   extracted from, and the simulator must realize the analytical II model. *)
open Homunculus_backends
module Ml = Homunculus_ml
module Rng = Homunculus_util.Rng

let random_inputs rng n d =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.uniform rng (-2.) 2.))

let test_dnn_interpreter_matches_mlp () =
  let rng = Rng.create 1 in
  let mlp = Ml.Mlp.create rng ~input_dim:5 ~hidden:[| 7; 4 |] ~output_dim:3 () in
  let ir = Model_ir.of_mlp ~name:"m" mlp in
  let xs = random_inputs rng 200 5 in
  Array.iter
    (fun x ->
      Alcotest.(check int) "same class" (Ml.Mlp.predict mlp x)
        (Inference.predict ir x);
      let logits = Ml.Mlp.logits mlp x in
      let scores = Inference.scores ir x in
      Array.iteri
        (fun i l ->
          Alcotest.(check (float 1e-9)) "same logits" l scores.(i))
        logits)
    xs

(* [Inference.scores] on a DNN must be exactly this literal loop: per neuron
   the accumulator starts at the bias, adds the products in ascending input
   order, then applies the layer's activation, looked up by name. Compared
   bit for bit on random nets mixing all four activations. *)
let literal_dnn_scores layers x =
  Array.fold_left
    (fun input (l : Model_ir.dnn_layer) ->
      Array.init l.Model_ir.n_out (fun i ->
          let acc = ref l.Model_ir.biases.(i) in
          for j = 0 to l.Model_ir.n_in - 1 do
            acc := !acc +. (l.Model_ir.weights.(i).(j) *. input.(j))
          done;
          match l.Model_ir.activation with
          | "relu" -> if !acc > 0. then !acc else 0.
          | "sigmoid" -> Homunculus_util.Mathx.sigmoid !acc
          | "tanh" -> tanh !acc
          | "linear" -> !acc
          | other -> Alcotest.failf "unexpected activation %s" other))
    x layers

let test_dnn_scores_match_literal_loop () =
  let names = [| "relu"; "sigmoid"; "tanh"; "linear" |] in
  for seed = 1 to 25 do
    let rng = Rng.create (1000 + seed) in
    let depth = 1 + Rng.int rng 4 in
    let dims = Array.init (depth + 1) (fun _ -> 1 + Rng.int rng 12) in
    let layers =
      Array.init depth (fun k ->
          let n_in = dims.(k) and n_out = dims.(k + 1) in
          {
            Model_ir.n_in;
            n_out;
            activation = names.(Rng.int rng 4);
            weights =
              Array.init n_out (fun _ ->
                  Array.init n_in (fun _ -> Rng.uniform rng (-3.) 3.));
            biases = Array.init n_out (fun _ -> Rng.uniform rng (-1.) 1.);
          })
    in
    let ir = Model_ir.Dnn { name = "r"; layers } in
    Array.iter
      (fun x ->
        let want = literal_dnn_scores layers x in
        let got = Inference.scores ir x in
        Alcotest.(check (array int64))
          (Printf.sprintf "seed %d bit-identical" seed)
          (Array.map Int64.bits_of_float want)
          (Array.map Int64.bits_of_float got))
      (random_inputs rng 20 dims.(0))
  done

(* The SVM and K-means arms are literal loops too: per class the SVM
   accumulator starts at the bias and adds [w.(j) *. x.(j)] in ascending
   order; per centroid K-means sums the squared differences in ascending
   order from 0 and negates. Values mix magnitudes so that any other order
   rounds differently. *)
let literal_svm_scores class_weights biases x =
  Array.mapi
    (fun c w ->
      let acc = ref biases.(c) in
      for j = 0 to Array.length w - 1 do
        acc := !acc +. (w.(j) *. x.(j))
      done;
      !acc)
    class_weights

let literal_kmeans_scores centroids x =
  Array.map
    (fun cen ->
      let acc = ref 0. in
      for j = 0 to Array.length cen - 1 do
        let d = x.(j) -. cen.(j) in
        acc := !acc +. (d *. d)
      done;
      -. !acc)
    centroids

let mixed_value rng =
  if Rng.int rng 4 = 0 then Rng.uniform rng (-1e4) 1e4 else Rng.uniform rng (-3.) 3.

let check_scores_bitwise name ir want x =
  Alcotest.(check (array int64)) name
    (Array.map Int64.bits_of_float want)
    (Array.map Int64.bits_of_float (Inference.scores ir x))

let test_svm_scores_match_literal_loop () =
  for seed = 1 to 25 do
    let rng = Rng.create (2000 + seed) in
    let k = 1 + Rng.int rng 5 and d = 1 + Rng.int rng 16 in
    let class_weights =
      Array.init k (fun _ -> Array.init d (fun _ -> mixed_value rng))
    in
    let biases = Array.init k (fun _ -> mixed_value rng) in
    let ir = Model_ir.Svm { name = "r"; class_weights; biases } in
    for _ = 1 to 20 do
      let x = Array.init d (fun _ -> mixed_value rng) in
      check_scores_bitwise
        (Printf.sprintf "seed %d bit-identical" seed)
        ir (literal_svm_scores class_weights biases x) x
    done
  done

let test_kmeans_scores_match_literal_loop () =
  for seed = 1 to 25 do
    let rng = Rng.create (3000 + seed) in
    let k = 1 + Rng.int rng 6 and d = 1 + Rng.int rng 16 in
    let centroids =
      Array.init k (fun _ -> Array.init d (fun _ -> mixed_value rng))
    in
    let ir = Model_ir.Kmeans { name = "r"; centroids } in
    for _ = 1 to 20 do
      let x = Array.init d (fun _ -> mixed_value rng) in
      check_scores_bitwise
        (Printf.sprintf "seed %d bit-identical" seed)
        ir (literal_kmeans_scores centroids x) x
    done
  done

let test_dnn_interpreter_tanh_path () =
  let rng = Rng.create 2 in
  let mlp =
    Ml.Mlp.create rng ~input_dim:4 ~hidden:[| 6 |] ~output_dim:2
      ~hidden_act:Ml.Activation.Tanh ()
  in
  let ir = Model_ir.of_mlp ~name:"m" mlp in
  let xs = random_inputs rng 100 4 in
  Array.iter
    (fun x ->
      Alcotest.(check int) "same class" (Ml.Mlp.predict mlp x)
        (Inference.predict ir x))
    xs

let test_kmeans_interpreter_matches () =
  let rng = Rng.create 3 in
  let data = random_inputs rng 150 3 in
  let km = Ml.Kmeans.fit rng ~k:4 data in
  let ir = Model_ir.of_kmeans ~name:"k" km in
  Array.iter
    (fun x ->
      Alcotest.(check int) "same cluster" (Ml.Kmeans.predict km x)
        (Inference.predict ir x))
    data

let test_svm_interpreter_matches () =
  let rng = Rng.create 4 in
  let x = random_inputs rng 120 4 in
  let y = Array.init 120 (fun i -> i mod 3) in
  let d = Ml.Dataset.create ~x ~y ~n_classes:3 () in
  let svm = Ml.Svm.fit rng d in
  let ir = Model_ir.of_svm ~name:"s" svm in
  Array.iter
    (fun sample ->
      Alcotest.(check int) "same class" (Ml.Svm.predict svm sample)
        (Inference.predict ir sample))
    x

let test_tree_interpreter_matches () =
  let rng = Rng.create 5 in
  let x = random_inputs rng 200 3 in
  let y = Array.map (fun r -> if r.(0) *. r.(1) > 0. then 1 else 0) x in
  let tree = Ml.Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let ir =
    Model_ir.Tree
      {
        name = "t";
        root = Ml.Decision_tree.Classifier.root tree;
        n_features = 3;
        n_classes = 2;
      }
  in
  Array.iter
    (fun sample ->
      Alcotest.(check int) "same class"
        (Ml.Decision_tree.Classifier.predict tree sample)
        (Inference.predict ir sample))
    x

let test_interpreter_rejects_bad_dim () =
  let ir = Model_ir.Kmeans { name = "k"; centroids = [| [| 0.; 0. |] |] } in
  Alcotest.check_raises "dim" (Invalid_argument "Inference: centroid dimension mismatch")
    (fun () -> ignore (Inference.predict ir [| 1. |]))

let test_quantization_close_at_16_bits () =
  let rng = Rng.create 6 in
  let mlp = Ml.Mlp.create rng ~input_dim:5 ~hidden:[| 8 |] ~output_dim:2 () in
  let ir = Model_ir.of_mlp ~name:"m" mlp in
  let q = Inference.quantize_weights ir ~bits:16 in
  let xs = random_inputs rng 300 5 in
  let agree = ref 0 in
  Array.iter
    (fun x -> if Inference.predict ir x = Inference.predict q x then incr agree)
    xs;
  (* FixPt[16] deployment loses almost nothing (paper's Spatial type). *)
  Alcotest.(check bool) "FixPt16 agreement > 99%" true (!agree >= 297)

let test_quantization_coarse_degrades () =
  let rng = Rng.create 7 in
  let mlp = Ml.Mlp.create rng ~input_dim:5 ~hidden:[| 8 |] ~output_dim:2 () in
  let ir = Model_ir.of_mlp ~name:"m" mlp in
  let q1 = Inference.quantize_weights ir ~bits:1 in
  let xs = random_inputs rng 300 5 in
  let diff = ref 0 in
  Array.iter
    (fun x -> if Inference.predict ir x <> Inference.predict q1 x then incr diff)
    xs;
  Alcotest.(check bool) "1-bit weights change decisions" true (!diff > 0)

let test_quantize_validates () =
  let ir = Model_ir.Kmeans { name = "k"; centroids = [| [| 0.5 |] |] } in
  Alcotest.check_raises "bits"
    (Invalid_argument "Inference.quantize_weights: bits outside [1, 52]")
    (fun () -> ignore (Inference.quantize_weights ir ~bits:0))

let test_map_parameters_identity () =
  let rng = Rng.create 8 in
  let mlp = Ml.Mlp.create rng ~input_dim:3 ~hidden:[| 4 |] ~output_dim:2 () in
  let ir = Model_ir.of_mlp ~name:"m" mlp in
  let same = Model_ir.map_parameters Fun.id ir in
  let xs = random_inputs rng 50 3 in
  Array.iter
    (fun x ->
      Alcotest.(check int) "identity map" (Inference.predict ir x)
        (Inference.predict same x))
    xs

(* Pipeline simulator *)

let config ~ii = { Pipeline_sim.ii_cycles = ii; pipeline_cycles = 40; clock_ghz = 1.; queue_capacity = 8 }

let test_sim_line_rate_at_ii1 () =
  let arrivals = Pipeline_sim.uniform_arrivals ~rate_gpps:1. ~n:1000 in
  let s = Pipeline_sim.simulate (config ~ii:1) ~arrivals_ns:arrivals in
  Alcotest.(check int) "no drops" 0 s.Pipeline_sim.packets_dropped;
  Alcotest.(check int) "all delivered" 1000 s.Pipeline_sim.packets_delivered;
  (* No queueing: every latency equals the pipeline depth. *)
  Alcotest.(check (float 1e-6)) "depth latency" 40. s.Pipeline_sim.mean_latency_ns;
  Alcotest.(check bool) "throughput ~ 1 Gpkt/s" true
    (s.Pipeline_sim.achieved_gpps > 0.95)

let test_sim_overload_at_ii2 () =
  (* Line-rate arrivals into an II=2 pipeline: queue fills, drops appear,
     achieved throughput halves. *)
  let arrivals = Pipeline_sim.uniform_arrivals ~rate_gpps:1. ~n:2000 in
  let s = Pipeline_sim.simulate (config ~ii:2) ~arrivals_ns:arrivals in
  Alcotest.(check bool) "drops" true (s.Pipeline_sim.packets_dropped > 0);
  Alcotest.(check bool) "half rate" true
    (s.Pipeline_sim.achieved_gpps < 0.6 && s.Pipeline_sim.achieved_gpps > 0.4);
  Alcotest.(check bool) "queue saturated" true (s.Pipeline_sim.max_queue_depth >= 7)

let test_sim_underload_at_ii2 () =
  (* Offered load below capacity: II=2 is fine at 0.4 Gpkt/s. *)
  let arrivals = Pipeline_sim.uniform_arrivals ~rate_gpps:0.4 ~n:1000 in
  let s = Pipeline_sim.simulate (config ~ii:2) ~arrivals_ns:arrivals in
  Alcotest.(check int) "no drops" 0 s.Pipeline_sim.packets_dropped;
  Alcotest.(check (float 1e-6)) "no queueing" 40. s.Pipeline_sim.mean_latency_ns

let test_sim_poisson_p99_above_mean () =
  let rng = Rng.create 9 in
  let arrivals = Pipeline_sim.poisson_arrivals rng ~rate_gpps:0.8 ~n:3000 in
  let s = Pipeline_sim.simulate (config ~ii:1) ~arrivals_ns:arrivals in
  Alcotest.(check bool) "bursts cause queueing" true
    (s.Pipeline_sim.p99_latency_ns >= s.Pipeline_sim.mean_latency_ns);
  Alcotest.(check bool) "mean above bare depth" true
    (s.Pipeline_sim.mean_latency_ns >= 40.)

let test_sim_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Pipeline_sim.simulate: arrivals must be ascending")
    (fun () ->
      ignore (Pipeline_sim.simulate (config ~ii:1) ~arrivals_ns:[| 5.; 1. |]))

let test_sim_config_of_mapping () =
  let grid = Taurus.default_grid in
  let model =
    Model_ir.Dnn
      {
        name = "m";
        layers =
          [|
            {
              Model_ir.n_in = 7;
              n_out = 8;
              activation = "relu";
              weights = Array.make_matrix 8 7 0.1;
              biases = Array.make 8 0.;
            };
          |];
      }
  in
  let mapping = Taurus.map_model grid model in
  let c = Pipeline_sim.config_of_mapping grid mapping in
  Alcotest.(check int) "II copied" mapping.Taurus.ii c.Pipeline_sim.ii_cycles;
  Alcotest.(check bool) "overhead added" true
    (c.Pipeline_sim.pipeline_cycles > mapping.Taurus.pipeline_cycles)

let suite =
  [
    Alcotest.test_case "dnn interpreter = mlp" `Quick test_dnn_interpreter_matches_mlp;
    Alcotest.test_case "dnn interpreter tanh" `Quick test_dnn_interpreter_tanh_path;
    Alcotest.test_case "dnn scores = literal loop" `Quick
      test_dnn_scores_match_literal_loop;
    Alcotest.test_case "svm scores = literal loop" `Quick
      test_svm_scores_match_literal_loop;
    Alcotest.test_case "kmeans scores = literal loop" `Quick
      test_kmeans_scores_match_literal_loop;
    Alcotest.test_case "kmeans interpreter" `Quick test_kmeans_interpreter_matches;
    Alcotest.test_case "svm interpreter" `Quick test_svm_interpreter_matches;
    Alcotest.test_case "tree interpreter" `Quick test_tree_interpreter_matches;
    Alcotest.test_case "interpreter dim check" `Quick test_interpreter_rejects_bad_dim;
    Alcotest.test_case "quantization 16-bit" `Quick test_quantization_close_at_16_bits;
    Alcotest.test_case "quantization 1-bit" `Quick test_quantization_coarse_degrades;
    Alcotest.test_case "quantize validates" `Quick test_quantize_validates;
    Alcotest.test_case "map_parameters id" `Quick test_map_parameters_identity;
    Alcotest.test_case "sim line rate II=1" `Quick test_sim_line_rate_at_ii1;
    Alcotest.test_case "sim overload II=2" `Quick test_sim_overload_at_ii2;
    Alcotest.test_case "sim underload II=2" `Quick test_sim_underload_at_ii2;
    Alcotest.test_case "sim poisson p99" `Quick test_sim_poisson_p99_above_mean;
    Alcotest.test_case "sim rejects unsorted" `Quick test_sim_rejects_unsorted;
    Alcotest.test_case "sim config of mapping" `Quick test_sim_config_of_mapping;
  ]
