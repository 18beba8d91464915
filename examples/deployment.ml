(* Deployment walkthrough: everything that happens after the search.

   The compiler's artifact is a trained Model_ir. This example takes one
   through the full deployment tool-chain: persist it to disk, verify the
   reloaded model is bit-exact, check the fixed-point precision the hardware
   will use, place it on the Taurus grid (floor plan included), run it
   through the cycle-level pipeline simulator under bursty load, and — for
   the MAT path — execute it with real quantized-table semantics and measure
   the fidelity loss versus the floating-point reference.

   Run with: dune exec examples/deployment.exe *)

open Homunculus_alchemy
open Homunculus_backends
open Homunculus_core
module Rng = Homunculus_util.Rng
module Iot = Homunculus_netdata.Iot
module Dataset = Homunculus_ml.Dataset

let () =
  (* Search a small model for the TC task on Taurus. *)
  let loader () =
    let rng = Rng.create 99 in
    let train, test = Iot.generate_split rng ~n_train:1500 ~n_test:600 () in
    Model_spec.data ~train ~test
  in
  let spec =
    Model_spec.make ~name:"tc" ~algorithms:[ Model_spec.Dnn ] ~loader ()
  in
  let result =
    Compiler.search_model ~options:Compiler.quick_options (Platform.taurus ()) spec
  in
  let model = result.Compiler.artifact.Evaluator.model_ir in
  Printf.printf "searched model: %s, %d params, F1 %.1f\n"
    (Model_ir.algorithm model)
    (Model_ir.param_count model)
    (100. *. result.Compiler.artifact.Evaluator.objective);

  (* 1. Persist and reload, bit-exact. *)
  let path = Filename.temp_file "homunculus_model" ".json" in
  Ir_io.save ~path model;
  let reloaded = Ir_io.load ~path in
  Sys.remove path;
  let data = Model_spec.load spec in
  let sample = data.Model_spec.test.Dataset.x.(0) in
  Printf.printf "1. saved + reloaded: scores bit-exact = %b\n"
    (Inference.scores model sample = Inference.scores reloaded sample);

  (* 2. Fixed-point deployment precision. *)
  let q16 = Inference.quantize_weights model ~bits:16 in
  let xs = data.Model_spec.test.Dataset.x in
  let agreement q =
    let same = ref 0 in
    Array.iter
      (fun x -> if Inference.predict model x = Inference.predict q x then incr same)
      xs;
    100. *. float_of_int !same /. float_of_int (Array.length xs)
  in
  Printf.printf "2. FixPt16 decision agreement: %.1f%% (FixPt4: %.1f%%)\n"
    (agreement q16)
    (agreement (Inference.quantize_weights model ~bits:4));

  (* 3. Grid placement. *)
  (match Placement.place_model Taurus.default_grid model with
  | Ok p ->
      Printf.printf
        "3. placed on the 16x16 grid: %.0f%% utilization, wirelength %.1f\n%s"
        (100. *. Placement.utilization p)
        (Placement.wirelength p) (Placement.render p)
  | Error e -> Printf.printf "3. placement failed: %s\n" e);

  (* 4. Cycle-level simulation under Poisson load at line rate. *)
  let mapping = Taurus.map_model Taurus.default_grid model in
  let sim_config = Pipeline_sim.config_of_mapping Taurus.default_grid mapping in
  let arrivals =
    Pipeline_sim.poisson_arrivals (Rng.create 7) ~rate_gpps:0.9 ~n:20000
  in
  let stats = Pipeline_sim.simulate sim_config ~arrivals_ns:arrivals in
  Printf.printf
    "4. 20k packets at 0.9 Gpkt/s Poisson: %.3f Gpkt/s delivered, mean %.1f ns, \
     p99 %.1f ns, %d drops\n"
    stats.Pipeline_sim.achieved_gpps stats.Pipeline_sim.mean_latency_ns
    stats.Pipeline_sim.p99_latency_ns stats.Pipeline_sim.packets_dropped;

  (* 5. The MAT runtime on a table-mappable model: train a KMeans variant,
     fold the scaler so it consumes raw features, and execute it with
     quantized TCAM semantics (keys calibrated on the training sample). *)
  let scaler, train_s = Homunculus_ml.Scaler.fit_dataset data.Model_spec.train in
  let km = Homunculus_ml.Kmeans.fit (Rng.create 8) ~k:5 train_s.Dataset.x in
  let km_ir =
    Model_ir.fold_standardization
      ~mean:(Homunculus_ml.Scaler.mean scaler)
      ~stddev:(Homunculus_ml.Scaler.stddev scaler)
      (Model_ir.of_kmeans ~name:"tc_kmeans" km)
  in
  let rt = Runtime.load ~calibration:data.Model_spec.train.Dataset.x km_ir in
  let fidelity = Runtime.fidelity rt km_ir ~x:data.Model_spec.test.Dataset.x in
  Printf.printf
    "5. MAT runtime (quantized range tables): %.1f%% fidelity vs float \
     reference, %d cell misses\n"
    (100. *. fidelity) (Runtime.miss_count rt)
