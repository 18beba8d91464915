(* Deployment-side passes: the MAT runtime interpreter, IR persistence, and
   reaction-time analysis. *)
open Homunculus_backends
module Ml = Homunculus_ml
module Rng = Homunculus_util.Rng
open Homunculus_netdata

(* Runtime *)

let trained_mlp_ir seed =
  let rng = Rng.create seed in
  let x =
    Array.init 200 (fun i ->
        let mu = if i mod 2 = 0 then -2. else 2. in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init 200 (fun i -> i mod 2) in
  let d = Ml.Dataset.create ~x ~y ~n_classes:2 () in
  let mlp = Ml.Mlp.create (Rng.create 1) ~input_dim:2 ~hidden:[| 8 |] ~output_dim:2 () in
  let config = { Ml.Train.default_config with Ml.Train.epochs = 20; patience = None } in
  let _ = Ml.Train.fit (Rng.create 2) mlp config d in
  (Model_ir.of_mlp ~name:"blobs" mlp, x, y)

let test_runtime_rejects_dnn () =
  let ir, _, _ = trained_mlp_ir 14 in
  Alcotest.check_raises "dnn"
    (Invalid_argument "Runtime.load: DNNs do not map to MATs (binarize first)")
    (fun () -> ignore (Runtime.load ir))

let test_runtime_svm_fidelity () =
  let rng = Rng.create 15 in
  let x =
    Array.init 200 (fun i ->
        let mu = if i mod 2 = 0 then -2. else 2. in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init 200 (fun i -> i mod 2) in
  let d = Ml.Dataset.create ~x ~y ~n_classes:2 () in
  let svm = Ml.Svm.fit rng d in
  let ir = Model_ir.of_svm ~name:"s" svm in
  let rt = Runtime.load ir in
  Alcotest.(check bool) "high fidelity" true (Runtime.fidelity rt ir ~x > 0.95);
  Alcotest.(check int) "svm has no misses" 0 (Runtime.miss_count rt)

let test_runtime_tree_fidelity () =
  let rng = Rng.create 16 in
  let x = Array.init 200 (fun _ -> [| Rng.uniform rng (-2.) 2.; Rng.uniform rng (-2.) 2. |]) in
  let y = Array.map (fun r -> if r.(0) *. r.(1) > 0. then 1 else 0) x in
  let tree = Ml.Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let ir =
    Model_ir.Tree
      { name = "t"; root = Ml.Decision_tree.Classifier.root tree; n_features = 2; n_classes = 2 }
  in
  let rt = Runtime.load ir in
  Alcotest.(check bool) "tree fidelity" true (Runtime.fidelity rt ir ~x > 0.95)

let test_runtime_kmeans_cells_and_misses () =
  let rng = Rng.create 17 in
  let x =
    Array.init 200 (fun i ->
        let mu = if i mod 2 = 0 then -1.5 else 1.5 in
        [| Rng.gaussian rng ~mu ~sigma:0.3 () |])
  in
  let km = Ml.Kmeans.fit rng ~k:2 x in
  let ir = Model_ir.of_kmeans ~name:"k" km in
  let rt = Runtime.load ir in
  let fid = Runtime.fidelity rt ir ~x in
  Alcotest.(check bool) "cells approximate nearest-centroid" true (fid > 0.9);
  (* A point far outside every cell exercises the default action. *)
  let far = [| 100. |] in
  let verdict = Runtime.classify rt far in
  Alcotest.(check int) "default action used" 1 (Runtime.miss_count rt);
  Alcotest.(check int) "default = nearest centroid" (Inference.predict ir far) verdict

(* A non-positive granularity gives no cell width: zero would divide by
   zero and a negative one would give cells with lo > hi. *)
let test_runtime_rejects_nonpositive_granularity () =
  let km = Model_ir.Kmeans { name = "k"; centroids = [| [| 1. |]; [| -1. |] |] } in
  let msg = Invalid_argument "Runtime.entries: entries_per_feature must be positive" in
  Alcotest.check_raises "load 0" msg (fun () -> ignore (Runtime.load ~entries_per_feature:0 km));
  Alcotest.check_raises "load -1" msg (fun () -> ignore (Runtime.load ~entries_per_feature:(-1) km));
  Alcotest.check_raises "emit_entries 0" msg (fun () ->
      ignore (P4gen.emit_entries ~entries_per_feature:0 km))

(* A one-feature SVM that predicts class 0 iff x > threshold: scores are
   [x - t] and [t - x], so the decision boundary sits exactly at [t]. *)
let step_svm ~threshold =
  Model_ir.Svm
    {
      name = "step";
      class_weights = [| [| 1. |]; [| -1. |] |];
      biases = [| -.threshold; threshold |];
    }

let test_runtime_quantize () =
  Alcotest.(check int) "unit scale" 256 (Runtime.quantize 1.);
  Alcotest.(check int) "clamps" 32767 (Runtime.quantize 1e9);
  Alcotest.(check int) "negative clamps" (-32768) (Runtime.quantize (-1e9));
  (* Beyond int_of_float's defined range the key saturates instead of
     wrapping: the old expression gave 0 at the infinities and 1e300, and
     -32768 at 4.7e18 / 256. *)
  Alcotest.(check int) "+inf saturates" 32767 (Runtime.quantize infinity);
  Alcotest.(check int) "-inf saturates" (-32768) (Runtime.quantize neg_infinity);
  Alcotest.(check int) "1e300 saturates" 32767 (Runtime.quantize 1e300);
  Alcotest.(check int) "-1e300 saturates" (-32768) (Runtime.quantize (-1e300));
  Alcotest.(check int) "4.7e18 saturates high" 32767
    (Runtime.quantize (4.7e18 /. 256.));
  Alcotest.(check int) "nan is key 0" 0 (Runtime.quantize Float.nan)

(* The key function before it was made branch-free, kept as the oracle:
   round half away from zero, truncate, clamp. *)
let legacy_key v =
  Homunculus_util.Mathx.clamp_int ~lo:(-32768) ~hi:32767
    (int_of_float (Float.round v))

(* Scaled values [v] where the legacy expression is defined: random bit
   patterns with finite |v| < 2^62, values across the key range, the
   neighbours of every rounding tie, and the named edge cases. *)
let key_value_gen =
  let open QCheck.Gen in
  let two62 = ldexp 1. 62 in
  let bits =
    map
      (fun b ->
        let v = Int64.float_of_bits b in
        if Float.is_finite v && Float.abs v < two62 then v else 0.)
      ui64
  in
  let tie =
    map3
      (fun k sign step ->
        let v = float_of_int k +. (if sign then 0.5 else -0.5) in
        match step with 0 -> Float.pred v | 1 -> v | _ -> Float.succ v)
      (int_range (-33000) 33000) bool (int_bound 2)
  in
  frequency
    [
      (3, bits);
      (3, float_range (-40000.) 40000.);
      (3, tie);
      ( 1,
        oneofl
          [
            0.; -0.; 0.49999999999999994; -0.49999999999999994; 32767.5;
            -32768.5; Float.pred 32767.5; Float.succ (-32768.5); Float.nan;
          ] );
    ]

(* Dividing by 256 is exact here (no value in range underflows to a
   different key), so [quantize (v / 256)] keys exactly [v]. The encode
   path is checked on the same value through a 1-feature 8.8 runtime. *)
let prop_key_matches_legacy =
  let rt = Runtime.load (step_svm ~threshold:0.) in
  let ws = Runtime.make_workspace rt in
  QCheck.Test.make ~name:"runtime key equals the legacy rounding" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") key_value_gen)
    (fun v ->
      let x = v /. 256. in
      Runtime.encode_into rt ws [| x |];
      Runtime.quantize x = legacy_key v
      && (Runtime.workspace_keys ws).(0) = legacy_key v)

let test_runtime_lookup_rejects_short_workspace () =
  let narrow = Runtime.load (step_svm ~threshold:0.) in
  let wide =
    Runtime.load
      (Model_ir.Svm
         {
           name = "wide";
           class_weights = [| [| 1.; 1. |]; [| -1.; -1. |] |];
           biases = [| 0.; 0. |];
         })
  in
  let ws = Runtime.make_workspace narrow in
  Alcotest.check_raises "short workspace"
    (Invalid_argument "Runtime.lookup: workspace from a different runtime")
    (fun () -> ignore (Runtime.lookup wide ws))

(* Quantization edges: the 8.8 key encoding covers |x| < 128; beyond that
   every input collapses onto the clamped key unless a calibration sample
   widens the per-feature scale. *)

let test_runtime_quantize_saturation_boundary () =
  Alcotest.(check bool) "in range is not clamped" true
    (Runtime.quantize 127. < 32767);
  Alcotest.(check int) "saturates at 128" 32767 (Runtime.quantize 128.);
  Alcotest.(check int) "saturated values collapse" (Runtime.quantize 200.)
    (Runtime.quantize 1000.);
  Alcotest.(check int) "negative saturation collapses"
    (Runtime.quantize (-200.))
    (Runtime.quantize (-1e6))

let test_runtime_quantization_in_range_agreement () =
  let ir = step_svm ~threshold:50. in
  let rt = Runtime.load ir in
  let rng = Rng.create 18 in
  (* In-range inputs clear of the boundary by more than the rounding error
     of the 8.8 keys: the table pipeline must agree with the FP reference
     everywhere, not just on average. *)
  let x =
    Array.init 500 (fun _ ->
        let v = Rng.uniform rng (-120.) 120. in
        [| (if Float.abs (v -. 50.) < 1. then 60. else v) |])
  in
  Alcotest.(check (array int))
    "exact agreement with Inference in range"
    (Inference.predict_all ir x) (Runtime.classify_all rt x)

let test_runtime_saturation_needs_calibration () =
  let ir = step_svm ~threshold:300. in
  let rt = Runtime.load ir in
  (* Both inputs exceed |x| = 128: without calibration they quantize to the
     same clamped key, so the pipeline cannot tell them apart even though
     the FP reference puts them on opposite sides of the boundary. *)
  Alcotest.(check bool) "FP reference distinguishes them" true
    (Inference.predict ir [| 200. |] <> Inference.predict ir [| 400. |]);
  Alcotest.(check int) "saturated keys are indistinguishable"
    (Runtime.classify rt [| 200. |])
    (Runtime.classify rt [| 400. |]);
  Alcotest.(check (float 1e-9)) "default scale is 8.8" 256.
    (Runtime.feature_scales rt).(0);
  (* A calibration sample covering the observed range widens the scale and
     restores agreement with the reference. *)
  let calibration = Array.init 32 (fun i -> [| float_of_int i *. 16. |]) in
  let rtc = Runtime.load ~calibration ir in
  Alcotest.(check bool) "calibrated scale is wider" true
    ((Runtime.feature_scales rtc).(0) < 256.);
  Alcotest.(check int) "calibrated agrees at 200"
    (Inference.predict ir [| 200. |])
    (Runtime.classify rtc [| 200. |]);
  Alcotest.(check int) "calibrated agrees at 400"
    (Inference.predict ir [| 400. |])
    (Runtime.classify rtc [| 400. |])

(* Ir_io *)

let test_ir_io_roundtrip_dnn () =
  let ir, x, _ = trained_mlp_ir 18 in
  let path = Filename.temp_file "homunculus" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ir_io.save ~path ir;
      let back = Ir_io.load ~path in
      Alcotest.(check string) "name" (Model_ir.name ir) (Model_ir.name back);
      Array.iter
        (fun sample ->
          let a = Inference.scores ir sample and b = Inference.scores back sample in
          Array.iteri
            (fun i v -> Alcotest.(check (float 0.)) "bit-exact scores" v b.(i))
            a |> ignore;
          ignore b)
        (Array.sub x 0 20))

let test_ir_io_roundtrip_all_algorithms () =
  let tree =
    Model_ir.Tree
      {
        name = "t";
        root =
          Ml.Decision_tree.Split
            {
              feature = 1;
              threshold = 0.125;
              left = Ml.Decision_tree.Leaf { distribution = [| 0.75; 0.25 |] };
              right = Ml.Decision_tree.Leaf { distribution = [| 0.1; 0.9 |] };
            };
        n_features = 3;
        n_classes = 2;
      }
  in
  let kmeans = Model_ir.Kmeans { name = "k"; centroids = [| [| 0.1; -0.2 |]; [| 3.; 4. |] |] } in
  let svm =
    Model_ir.Svm { name = "s"; class_weights = [| [| 1.5; -2.25 |] |]; biases = [| 0.5 |] }
  in
  List.iter
    (fun ir ->
      let back = Ir_io.of_json (Ir_io.to_json ir) in
      Alcotest.(check bool)
        (Model_ir.algorithm ir ^ " roundtrip")
        true (back = ir))
    [ tree; kmeans; svm ]

let test_ir_io_rejects_garbage () =
  Alcotest.(check bool) "unknown algorithm" true
    (try
       ignore
         (Ir_io.of_json
            (Homunculus_util.Json.of_string {| {"algorithm": "gan", "name": "x"} |}));
       false
     with Invalid_argument _ -> true)

(* Reaction *)

let simple_classifier flows =
  (* Train a quick tree on full-flow markers. *)
  let x = Array.map (fun f -> Botnet.flow_features Botnet.Fused f ()) flows in
  let y = Array.map (fun f -> Flow.label_to_int f.Flow.label) flows in
  let tree = Ml.Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  fun features -> Ml.Decision_tree.Classifier.predict tree features

let test_detection_curve_improves () =
  let rng = Rng.create 19 in
  let flows = Flowsim.generate rng () in
  let classify = simple_classifier flows in
  let curve =
    Reaction.detection_curve ~classify ~bins:Botnet.Fused
      ~prefix_lengths:[ 2; 16; 120 ] flows
  in
  (match curve with
  | [ early; mid; late ] ->
      Alcotest.(check bool) "more packets help" true
        (late.Reaction.f1 >= early.Reaction.f1 -. 0.05);
      Alcotest.(check bool) "mid decent" true (mid.Reaction.f1 > 0.6);
      Alcotest.(check bool) "flow counts shrink" true
        (late.Reaction.n_flows <= early.Reaction.n_flows)
  | _ -> Alcotest.fail "expected three points")

let test_reaction_times_and_summary () =
  let rng = Rng.create 20 in
  let flows = Flowsim.generate rng () in
  let classify = simple_classifier flows in
  let reactions = Reaction.reaction_times ~classify ~bins:Botnet.Fused flows in
  Alcotest.(check bool) "covers all botnet flows" true
    (List.length reactions > 0);
  let s = Reaction.summarize reactions in
  Alcotest.(check bool) "most flows detected" true (s.Reaction.detection_rate > 0.7);
  Alcotest.(check bool) "fast detection" true (s.Reaction.mean_packets < 60.);
  (* The paper's claim: far below the 3600 s flowmarker window. *)
  Alcotest.(check bool) "well under an hour" true (s.Reaction.median_seconds < 3600.)

let test_reaction_confirm_debounces () =
  let rng = Rng.create 21 in
  let flows = Flowsim.generate rng () in
  let classify = simple_classifier flows in
  let fast = Reaction.summarize (Reaction.reaction_times ~classify ~bins:Botnet.Fused ~confirm:1 flows) in
  let slow = Reaction.summarize (Reaction.reaction_times ~classify ~bins:Botnet.Fused ~confirm:5 flows) in
  Alcotest.(check bool) "confirmation delays verdicts" true
    (slow.Reaction.detected = 0
    || slow.Reaction.mean_packets >= fast.Reaction.mean_packets)

let suite =
  [
    Alcotest.test_case "runtime rejects dnn" `Quick test_runtime_rejects_dnn;
    Alcotest.test_case "runtime svm fidelity" `Quick test_runtime_svm_fidelity;
    Alcotest.test_case "runtime tree fidelity" `Quick test_runtime_tree_fidelity;
    Alcotest.test_case "runtime kmeans cells" `Quick test_runtime_kmeans_cells_and_misses;
    Alcotest.test_case "runtime quantize" `Quick test_runtime_quantize;
    Alcotest.test_case "runtime rejects non-positive granularity" `Quick
      test_runtime_rejects_nonpositive_granularity;
    QCheck_alcotest.to_alcotest prop_key_matches_legacy;
    Alcotest.test_case "runtime lookup rejects short workspace" `Quick
      test_runtime_lookup_rejects_short_workspace;
    Alcotest.test_case "runtime saturation boundary" `Quick
      test_runtime_quantize_saturation_boundary;
    Alcotest.test_case "runtime in-range agreement" `Quick
      test_runtime_quantization_in_range_agreement;
    Alcotest.test_case "runtime calibration rescues saturation" `Quick
      test_runtime_saturation_needs_calibration;
    Alcotest.test_case "ir_io dnn roundtrip" `Quick test_ir_io_roundtrip_dnn;
    Alcotest.test_case "ir_io all algorithms" `Quick test_ir_io_roundtrip_all_algorithms;
    Alcotest.test_case "ir_io rejects garbage" `Quick test_ir_io_rejects_garbage;
    Alcotest.test_case "reaction curve" `Quick test_detection_curve_improves;
    Alcotest.test_case "reaction times" `Quick test_reaction_times_and_summary;
    Alcotest.test_case "reaction debounce" `Quick test_reaction_confirm_debounces;
  ]
