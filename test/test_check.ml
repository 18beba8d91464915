(* Differential conformance: a fixed-seed budget of random models through
   every deployment path, plus unit coverage of the harness pieces (case
   serialization, the shrinker, artifact replay, entries parsing). *)
module Check = Homunculus_check
module Case = Check.Case
module Gen = Check.Gen
module Oracle = Check.Oracle
module Harness = Check.Harness
module Rng = Homunculus_util.Rng
module Inference = Homunculus_backends.Inference
module Model_ir = Homunculus_backends.Model_ir
module Runtime = Homunculus_backends.Runtime
module P4gen = Homunculus_backends.P4gen

let test_conformance_budget () =
  let report =
    Harness.run { Harness.default_options with seed = 42; trials = 150 }
  in
  if not (Harness.ok report) then
    Alcotest.failf "conformance violations:\n%s" (Harness.render report);
  List.iter
    (fun (s : Harness.stats) ->
      Alcotest.(check bool)
        (Oracle.backend_to_string s.Harness.backend ^ " exercised")
        true
        (s.Harness.cases > 0 && s.Harness.samples > 0))
    report.Harness.stats

let test_case_roundtrip () =
  let rng = Rng.create 7 in
  List.iter
    (fun family ->
      for _ = 1 to 5 do
        let case = Gen.case (Rng.split rng) family in
        let case' = Case.of_json (Case.to_json case) in
        Alcotest.(check int)
          (Gen.family_to_string family ^ " size survives round-trip")
          (Case.size case) (Case.size case');
        Alcotest.(check (array int))
          (Gen.family_to_string family ^ " verdicts survive round-trip")
          (Inference.predict_all case.Case.model case.Case.inputs)
          (Inference.predict_all case'.Case.model case'.Case.inputs)
      done)
    Gen.all_families

let test_invariants_hold () =
  let rng = Rng.create 11 in
  List.iter
    (fun family ->
      for _ = 1 to 3 do
        let case = Gen.case (Rng.split rng) family in
        match Oracle.check_invariants case with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "%s invariant %s: %s"
              (Gen.family_to_string family)
              f.Oracle.invariant f.Oracle.detail
      done)
    Gen.all_families

(* The shrinker only needs the predicate to keep failing; drive it with a
   synthetic failure and check it reaches the minimal shape. *)
let test_shrinker_minimizes () =
  let case = Gen.case (Rng.create 3) Gen.Svm in
  let still_fails c =
    Case.n_inputs c >= 1 && Model_ir.input_dim c.Case.model >= 1
  in
  let shrunk = Check.Shrink.shrink ~still_fails case in
  Alcotest.(check bool) "shrunk case still fails" true (still_fails shrunk);
  Alcotest.(check int) "one input row left" 1 (Case.n_inputs shrunk);
  Alcotest.(check int) "one feature left" 1 (Model_ir.input_dim shrunk.Case.model);
  Alcotest.(check bool) "size strictly decreased" true
    (Case.size shrunk < Case.size case)

let test_shrinker_preserves_failure () =
  let case = Gen.case (Rng.create 5) Gen.Tree in
  (* A predicate tied to the batch: some row's first feature is positive. *)
  let still_fails c =
    Array.exists (fun row -> row.(0) > 0.) c.Case.inputs
  in
  if still_fails case then begin
    let shrunk = Check.Shrink.shrink ~still_fails case in
    Alcotest.(check bool) "failure preserved" true (still_fails shrunk);
    Alcotest.(check bool) "no larger" true (Case.size shrunk <= Case.size case)
  end

let test_replay_artifact () =
  let case = Gen.case (Rng.create 13) Gen.Kmeans in
  let path = Filename.temp_file "homc_case" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Homunculus_util.Json.to_string (Case.to_json case));
      close_out oc;
      let outcome = Harness.replay (Harness.load_artifact ~path) in
      Alcotest.(check bool) "replayed case passes" true
        (Harness.replay_ok outcome);
      Alcotest.(check bool) "at least one backend compared" true
        (outcome.Harness.comparisons <> []))

let test_entries_parser_rejects_garbage () =
  Alcotest.check_raises "malformed dump"
    (Check.P4_eval.Bad_entries "unrecognized entry line: table_add what")
    (fun () -> ignore (Check.P4_eval.parse "table_add what"))

(* One table semantics: executing the printed entries dump (parse, then the
   runtime's executor) gives the served verdict on every input. *)
let executed_dump model =
  Runtime.of_entries (Check.P4_eval.parse (P4gen.emit_entries model))

let mat_families = [ Gen.Tree; Gen.Forest; Gen.Svm; Gen.Kmeans ]

(* 300 generated cases per MAT family, after two models that an unsigned
   16-bit dump gets wrong, checked against the float reference too: a
   centroid below zero (its cell would clip at the unsigned key range) and
   SVM weights of +-200 (they would wrap to the opposite sign). *)
let test_dump_executes_as_served () =
  let rng = Rng.create 7 in
  let hand_built =
    [
      { Case.model = Model_ir.Kmeans { name = "k"; centroids = [| [| 10. |]; [| -0.5 |] |] };
        inputs = [| [| 0.3 |]; [| 1.0 |]; [| -0.5 |]; [| 9. |] |] };
      { Case.model =
          Model_ir.Svm
            { name = "s"; class_weights = [| [| 200. |]; [| -200. |] |]; biases = [| 0.; 0. |] };
        inputs = [| [| 1. |]; [| -1. |]; [| 0.25 |] |] };
    ]
  in
  List.iter
    (fun { Case.model; inputs } ->
      Alcotest.(check (array int)) "float reference" (Inference.predict_all model inputs)
        (Runtime.classify_all (Runtime.load model) inputs))
    hand_built;
  List.iteri
    (fun i { Case.model; inputs } ->
      Alcotest.(check (array int)) (Printf.sprintf "case %d" i)
        (Runtime.classify_all (Runtime.load model) inputs)
        (Runtime.classify_all (executed_dump model) inputs))
    (hand_built
    @ List.concat_map
        (fun family -> List.init 300 (fun _ -> Gen.case (Rng.split rng) family))
        mat_families)

(* [parse (print e) = e], calibrated entries (non-256 scales) included. *)
let prop_entries_roundtrip =
  QCheck.Test.make ~name:"entries print-parse round-trip" ~count:200
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, calibrated) ->
      let rng = Rng.create seed in
      let { Case.model; inputs } = Gen.case rng (List.nth mat_families (Rng.int rng 4)) in
      let e = Runtime.entries ?calibration:(if calibrated then Some inputs else None) model in
      calibrated = Array.exists (fun s -> s <> 256.) e.Homunculus_backends.P4_ir.scales
      && Check.P4_eval.parse (P4gen.print_entries ~name:"m" e) = e)

let test_backend_applicability () =
  let dnn =
    Model_ir.Dnn
      {
        name = "m";
        layers =
          [|
            {
              Model_ir.n_in = 2;
              n_out = 2;
              activation = "linear";
              weights = [| [| 1.; 0. |]; [| 0.; 1. |] |];
              biases = [| 0.; 0. |];
            };
          |];
      }
  in
  Alcotest.(check bool) "spatial takes DNNs" true (Oracle.applicable Oracle.Spatial dnn);
  Alcotest.(check bool) "runtime rejects DNNs" false
    (Oracle.applicable Oracle.Mat_runtime dnn);
  Alcotest.(check bool) "p4 rejects DNNs" false (Oracle.applicable Oracle.P4 dnn)

let suite =
  [
    Alcotest.test_case "fixed-seed conformance budget" `Slow test_conformance_budget;
    Alcotest.test_case "case JSON round-trip is bit-exact" `Quick test_case_roundtrip;
    Alcotest.test_case "invariants hold on generated cases" `Quick test_invariants_hold;
    Alcotest.test_case "shrinker reaches the minimal shape" `Quick test_shrinker_minimizes;
    Alcotest.test_case "shrinker preserves the failure" `Quick test_shrinker_preserves_failure;
    Alcotest.test_case "artifact replay round-trips" `Quick test_replay_artifact;
    Alcotest.test_case "entries parser rejects garbage" `Quick test_entries_parser_rejects_garbage;
    Alcotest.test_case "backend applicability" `Quick test_backend_applicability;
    Alcotest.test_case "dump executes as served" `Quick test_dump_executes_as_served;
    QCheck_alcotest.to_alcotest prop_entries_roundtrip;
  ]
