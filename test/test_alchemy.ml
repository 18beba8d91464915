(* Model specs, platforms, schedules, IO maps. *)
open Homunculus_alchemy
open Homunculus_backends
module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset

let tiny_dataset seed n =
  let rng = Rng.create seed in
  let x = Array.init n (fun _ -> [| Rng.float rng 1.; Rng.float rng 1. |]) in
  let y = Array.init n (fun i -> i mod 2) in
  Dataset.create ~feature_names:[| "a"; "b" |] ~x ~y ~n_classes:2 ()

let spec ?(name = "m") () =
  Model_spec.make ~name
    ~loader:(fun () ->
      Model_spec.data ~train:(tiny_dataset 1 40) ~test:(tiny_dataset 2 20))
    ()

(* Model_spec *)

let test_spec_defaults () =
  let s = spec () in
  Alcotest.(check string) "name" "m" (Model_spec.name s);
  Alcotest.(check bool) "default metric f1" true (Model_spec.metric s = Model_spec.F1);
  Alcotest.(check int) "all algorithms" 4 (List.length (Model_spec.algorithms s))

let test_spec_loader_cached () =
  let calls = ref 0 in
  let s =
    Model_spec.make ~name:"cached"
      ~loader:(fun () ->
        incr calls;
        Model_spec.data ~train:(tiny_dataset 1 10) ~test:(tiny_dataset 2 10))
      ()
  in
  let _ = Model_spec.load s in
  let _ = Model_spec.load s in
  Alcotest.(check int) "loader ran once" 1 !calls

let test_spec_data_validates_schema () =
  let train = tiny_dataset 1 10 in
  let test =
    Dataset.create ~feature_names:[| "x"; "y" |]
      ~x:[| [| 0.; 0. |] |] ~y:[| 0 |] ~n_classes:2 ()
  in
  Alcotest.check_raises "schema"
    (Invalid_argument "Model_spec.data: train/test feature schema mismatch")
    (fun () -> ignore (Model_spec.data ~train ~test))

let test_spec_rejects_empty () =
  Alcotest.check_raises "empty name" (Invalid_argument "Model_spec.make: empty name")
    (fun () ->
      ignore
        (Model_spec.make ~name:""
           ~loader:(fun () ->
             Model_spec.data ~train:(tiny_dataset 1 10) ~test:(tiny_dataset 2 10))
           ()));
  Alcotest.check_raises "no algorithms"
    (Invalid_argument "Model_spec.make: empty algorithm list") (fun () ->
      ignore
        (Model_spec.make ~name:"x" ~algorithms:[]
           ~loader:(fun () ->
             Model_spec.data ~train:(tiny_dataset 1 10) ~test:(tiny_dataset 2 10))
           ()))

let test_spec_strings () =
  Alcotest.(check string) "metric" "v_measure" (Model_spec.metric_to_string Model_spec.V_measure);
  Alcotest.(check string) "algorithm" "kmeans" (Model_spec.algorithm_to_string Model_spec.Kmeans)

(* Platform *)

let test_platform_names () =
  Alcotest.(check string) "taurus" "taurus-16x16" (Platform.name (Platform.taurus ()));
  Alcotest.(check string) "tofino" "tofino-32mat" (Platform.name (Platform.tofino ()));
  Alcotest.(check string) "fpga" "alveo-u250" (Platform.name (Platform.fpga ()))

let test_platform_default_perf () =
  let p = Platform.perf (Platform.taurus ()) in
  Alcotest.(check (float 0.)) "1 Gpkt/s" 1. p.Resource.min_throughput_gpps;
  Alcotest.(check (float 0.)) "500 ns" 500. p.Resource.max_latency_ns

let test_platform_constrain () =
  let p = Platform.constrain (Platform.taurus ()) ~max_latency_ns:200. () in
  Alcotest.(check (float 0.)) "tightened" 200. (Platform.perf p).Resource.max_latency_ns;
  Alcotest.(check (float 0.)) "throughput untouched" 1.
    (Platform.perf p).Resource.min_throughput_gpps

let test_platform_with_resources () =
  let p = Platform.with_resources (Platform.taurus ()) ~rows:8 ~cols:8 in
  Alcotest.(check string) "resized" "taurus-8x8" (Platform.name p);
  Alcotest.check_raises "tofino has no grid"
    (Invalid_argument "Platform.with_resources: only Taurus grids have rows/cols")
    (fun () -> ignore (Platform.with_resources (Platform.tofino ()) ~rows:4 ~cols:4))

let test_platform_with_tables () =
  let p = Platform.with_tables (Platform.tofino ()) 5 in
  Alcotest.(check string) "resized" "tofino-5mat" (Platform.name p);
  Alcotest.check_raises "taurus has no tables"
    (Invalid_argument "Platform.with_tables: only Tofino targets have MAT budgets")
    (fun () -> ignore (Platform.with_tables (Platform.taurus ()) 5))

let test_platform_supports () =
  let taurus = Platform.taurus () and tofino = Platform.tofino () in
  Alcotest.(check bool) "taurus dnn" true (Platform.supports taurus Model_spec.Dnn);
  Alcotest.(check bool) "tofino dnn" false (Platform.supports tofino Model_spec.Dnn);
  Alcotest.(check bool) "tofino svm" true (Platform.supports tofino Model_spec.Svm);
  Alcotest.(check bool) "fpga tree" true (Platform.supports (Platform.fpga ()) Model_spec.Tree)

let test_platform_estimate_dispatch () =
  let km = Model_ir.Kmeans { name = "k"; centroids = Array.make_matrix 3 4 0.1 } in
  let vt = Platform.estimate (Platform.taurus ()) km in
  Alcotest.(check bool) "taurus reports CU" true (Resource.find_usage vt "CU" <> None);
  let vm = Platform.estimate (Platform.tofino ()) km in
  Alcotest.(check bool) "tofino reports MAT" true (Resource.find_usage vm "MAT" <> None);
  let vf = Platform.estimate (Platform.fpga ()) km in
  Alcotest.(check bool) "fpga reports LUT" true (Resource.find_usage vf "LUT" <> None)

(* Schedule *)

let test_schedule_structure () =
  let a = spec ~name:"a" () and b = spec ~name:"b" () and c = spec ~name:"c" () in
  let s = Schedule.(model a >>> (model b ||| model c)) in
  Alcotest.(check int) "3 models" 3 (Schedule.n_models s);
  Alcotest.(check int) "depth 2" 2 (Schedule.depth s);
  Alcotest.(check int) "width 2" 2 (Schedule.width s);
  Alcotest.(check (list string)) "leaf order" [ "a"; "b"; "c" ]
    (List.map Model_spec.name (Schedule.models s));
  Alcotest.(check string) "notation" "(a > (b | c))" (Schedule.to_string s)

let test_schedule_chain_depth () =
  let m () = Schedule.model (spec ~name:"x" ()) in
  let s = Schedule.(m () >>> m () >>> m () >>> m ()) in
  Alcotest.(check int) "depth 4" 4 (Schedule.depth s);
  Alcotest.(check int) "width 1" 1 (Schedule.width s)

let mk_verdict ~cus ~latency ~gpps =
  Resource.check Resource.line_rate
    ~usages:
      [
        Resource.usage ~resource:"CU" ~used:(float_of_int cus) ~available:128.;
        Resource.usage ~resource:"MU" ~used:10. ~available:128.;
      ]
    ~latency_ns:latency ~throughput_gpps:gpps

let test_schedule_combine_seq_adds_latency () =
  let a = spec ~name:"a" () and b = spec ~name:"b" () in
  let s = Schedule.(model a >>> model b) in
  let estimate _ = mk_verdict ~cus:10 ~latency:50. ~gpps:1. in
  let c = Schedule.combine s ~perf:Resource.line_rate ~estimate in
  Alcotest.(check (float 1e-9)) "latency adds" 100. c.Schedule.verdict.Resource.latency_ns;
  (match Resource.find_usage c.Schedule.verdict "CU" with
  | Some u -> Alcotest.(check (float 1e-9)) "CUs add" 20. u.Resource.used
  | None -> Alcotest.fail "CU missing");
  Alcotest.(check int) "per-model verdicts" 2 (List.length c.Schedule.per_model)

let test_schedule_combine_par_max_latency () =
  let a = spec ~name:"a" () and b = spec ~name:"b" () in
  let s = Schedule.(model a ||| model b) in
  let estimate sp =
    if Model_spec.name sp = "a" then mk_verdict ~cus:10 ~latency:40. ~gpps:1.
    else mk_verdict ~cus:5 ~latency:90. ~gpps:1.
  in
  let c = Schedule.combine s ~perf:Resource.line_rate ~estimate in
  Alcotest.(check (float 1e-9)) "latency max" 90. c.Schedule.verdict.Resource.latency_ns

let test_schedule_combine_min_throughput () =
  (* Paper §3.2.1: a 1 Gpkt/s model feeding a 0.5 Gpkt/s model runs at 0.5. *)
  let a = spec ~name:"a" () and b = spec ~name:"b" () in
  let s = Schedule.(model a >>> model b) in
  let estimate sp =
    if Model_spec.name sp = "a" then mk_verdict ~cus:1 ~latency:10. ~gpps:1.
    else mk_verdict ~cus:1 ~latency:10. ~gpps:0.5
  in
  let c = Schedule.combine s ~perf:Resource.line_rate ~estimate in
  Alcotest.(check (float 1e-9)) "min throughput" 0.5
    c.Schedule.verdict.Resource.throughput_gpps;
  Alcotest.(check bool) "violates line rate" false c.Schedule.verdict.Resource.feasible

let test_schedule_combine_resource_overflow () =
  let m () = Schedule.model (spec ~name:"x" ()) in
  let s = Schedule.(m () ||| m ()) in
  let estimate _ = mk_verdict ~cus:100 ~latency:10. ~gpps:1. in
  let c = Schedule.combine s ~perf:Resource.line_rate ~estimate in
  Alcotest.(check bool) "200 CUs over 128" false c.Schedule.verdict.Resource.feasible

let suite =
  [
    Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
    Alcotest.test_case "spec loader cached" `Quick test_spec_loader_cached;
    Alcotest.test_case "spec schema validation" `Quick test_spec_data_validates_schema;
    Alcotest.test_case "spec rejects empties" `Quick test_spec_rejects_empty;
    Alcotest.test_case "spec strings" `Quick test_spec_strings;
    Alcotest.test_case "platform names" `Quick test_platform_names;
    Alcotest.test_case "platform default perf" `Quick test_platform_default_perf;
    Alcotest.test_case "platform constrain" `Quick test_platform_constrain;
    Alcotest.test_case "platform resources" `Quick test_platform_with_resources;
    Alcotest.test_case "platform tables" `Quick test_platform_with_tables;
    Alcotest.test_case "platform supports" `Quick test_platform_supports;
    Alcotest.test_case "platform estimate dispatch" `Quick test_platform_estimate_dispatch;
    Alcotest.test_case "schedule structure" `Quick test_schedule_structure;
    Alcotest.test_case "schedule chain depth" `Quick test_schedule_chain_depth;
    Alcotest.test_case "combine seq latency" `Quick test_schedule_combine_seq_adds_latency;
    Alcotest.test_case "combine par latency" `Quick test_schedule_combine_par_max_latency;
    Alcotest.test_case "combine min throughput" `Quick test_schedule_combine_min_throughput;
    Alcotest.test_case "combine overflow" `Quick test_schedule_combine_resource_overflow;
  ]
