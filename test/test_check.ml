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
    (fun () -> ignore (Check.P4_eval.of_entries ~n_features:1 "table_add what"))

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
  ]
