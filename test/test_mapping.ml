(* Stage allocation and grid placement. *)
open Homunculus_backends

(* Stage_alloc *)

let test_alloc_independent_pack () =
  match
    Stage_alloc.allocate ~n_stages:12 ~tables_per_stage:4
      (Stage_alloc.independent [ "a"; "b"; "c"; "d"; "e" ])
  with
  | Ok a ->
      Alcotest.(check int) "two stages" 2 a.Stage_alloc.stages_used;
      Alcotest.(check (array int)) "4 + 1" [| 4; 1 |] a.Stage_alloc.occupancy
  | Error e -> Alcotest.fail (Stage_alloc.error_to_string e)

let test_alloc_chain_serializes () =
  match
    Stage_alloc.allocate ~n_stages:12 ~tables_per_stage:4
      (Stage_alloc.chain [ "l0"; "l1"; "l2" ])
  with
  | Ok a ->
      Alcotest.(check int) "three stages" 3 a.Stage_alloc.stages_used;
      Alcotest.(check (option int)) "l2 last" (Some 2)
        (List.assoc_opt "l2" a.Stage_alloc.stage_of)
  | Error e -> Alcotest.fail (Stage_alloc.error_to_string e)

let test_alloc_respects_dependencies () =
  let tables =
    [
      { Stage_alloc.name = "f0"; depends_on = [] };
      { Stage_alloc.name = "f1"; depends_on = [] };
      { Stage_alloc.name = "decision"; depends_on = [ "f0"; "f1" ] };
    ]
  in
  match Stage_alloc.allocate ~n_stages:12 ~tables_per_stage:4 tables with
  | Ok a ->
      let stage n = List.assoc n a.Stage_alloc.stage_of in
      Alcotest.(check bool) "decision after votes" true
        (stage "decision" > stage "f0" && stage "decision" > stage "f1")
  | Error e -> Alcotest.fail (Stage_alloc.error_to_string e)

let test_alloc_capacity_error () =
  match
    Stage_alloc.allocate ~n_stages:2 ~tables_per_stage:1
      (Stage_alloc.chain [ "a"; "b"; "c" ])
  with
  | Error (Stage_alloc.Capacity_exceeded { needed_stages; available }) ->
      Alcotest.(check int) "needs 3" 3 needed_stages;
      Alcotest.(check int) "has 2" 2 available
  | Ok _ | Error _ -> Alcotest.fail "expected capacity error"

let test_alloc_cycle_detected () =
  let tables =
    [
      { Stage_alloc.name = "a"; depends_on = [ "b" ] };
      { Stage_alloc.name = "b"; depends_on = [ "a" ] };
    ]
  in
  match Stage_alloc.allocate ~n_stages:4 ~tables_per_stage:4 tables with
  | Error (Stage_alloc.Cycle _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected cycle error"

let test_alloc_unknown_dependency () =
  let tables = [ { Stage_alloc.name = "a"; depends_on = [ "ghost" ] } ] in
  match Stage_alloc.allocate ~n_stages:4 ~tables_per_stage:4 tables with
  | Error (Stage_alloc.Unknown_dependency { dependency; _ }) ->
      Alcotest.(check string) "names ghost" "ghost" dependency
  | Ok _ | Error _ -> Alcotest.fail "expected unknown-dependency error"

let test_critical_path () =
  Alcotest.(check int) "chain" 4 (Stage_alloc.critical_path (Stage_alloc.chain [ "a"; "b"; "c"; "d" ]));
  Alcotest.(check int) "flat" 1 (Stage_alloc.critical_path (Stage_alloc.independent [ "a"; "b" ]));
  Alcotest.(check int) "empty" 0 (Stage_alloc.critical_path [])

let test_iisy_table_graph_svm () =
  let svm =
    Model_ir.Svm
      { name = "s"; class_weights = Array.make_matrix 2 3 1.; biases = [| 0.; 0. |] }
  in
  let graph = Iisy.table_graph svm in
  Alcotest.(check int) "3 votes + decision" 4 (List.length graph);
  Alcotest.(check int) "critical path 2" 2 (Stage_alloc.critical_path graph)

let test_iisy_table_graph_dnn_layers_chain () =
  let layer n_in n_out =
    {
      Model_ir.n_in;
      n_out;
      activation = "relu";
      weights = Array.make_matrix n_out n_in 0.1;
      biases = Array.make n_out 0.;
    }
  in
  let dnn = Model_ir.Dnn { name = "d"; layers = [| layer 4 4; layer 4 2 |] } in
  let graph = Iisy.table_graph dnn in
  let mapping = Iisy.map_model dnn in
  Alcotest.(check int) "graph matches mapping size" (Iisy.n_tables mapping)
    (List.length graph);
  Alcotest.(check int) "two layers -> path 2" 2 (Stage_alloc.critical_path graph)

let test_tofino_stage_allocation_in_estimate () =
  (* A deep tree needs one stage per level; estimate must reflect that. *)
  let rec deep_tree depth =
    if depth = 0 then
      Homunculus_ml.Decision_tree.Leaf { distribution = [| 1.; 0. |] }
    else
      Homunculus_ml.Decision_tree.Split
        {
          feature = 0;
          threshold = float_of_int depth;
          left = deep_tree (depth - 1);
          right = Homunculus_ml.Decision_tree.Leaf { distribution = [| 0.; 1. |] };
        }
  in
  let model =
    Model_ir.Tree { name = "t"; root = deep_tree 9; n_features = 2; n_classes = 2 }
  in
  let v = Tofino.estimate_model Tofino.default_device Resource.line_rate model in
  match Resource.find_usage v "stages" with
  | Some u ->
      (* 9 level tables + leaves, chained: 10 stages. *)
      Alcotest.(check (float 0.)) "chained stages" 10. u.Resource.used
  | None -> Alcotest.fail "stages usage missing"

(* Placement *)

let grid = Taurus.default_grid

let test_checkerboard () =
  Alcotest.(check bool) "origin CU" true (Placement.tile_kind_at ~row:0 ~col:0 = Placement.Cu);
  Alcotest.(check bool) "neighbor MU" true (Placement.tile_kind_at ~row:0 ~col:1 = Placement.Mu)

let test_place_respects_demands () =
  match Placement.place grid [ ("a", 10, 4); ("b", 6, 8) ] with
  | Ok p ->
      let count kind tiles =
        List.length (List.filter (fun t -> t.Placement.kind = kind) tiles)
      in
      let a = List.assoc "a" p.Placement.assignments in
      let b = List.assoc "b" p.Placement.assignments in
      Alcotest.(check int) "a CUs" 10 (count Placement.Cu a);
      Alcotest.(check int) "a MUs" 4 (count Placement.Mu a);
      Alcotest.(check int) "b CUs" 6 (count Placement.Cu b);
      Alcotest.(check int) "b MUs" 8 (count Placement.Mu b)
  | Error e -> Alcotest.fail e

let test_place_no_overlap () =
  match Placement.place grid [ ("a", 20, 20); ("b", 20, 20); ("c", 10, 10) ] with
  | Ok p ->
      let all =
        List.concat_map (fun (_, tiles) -> tiles) p.Placement.assignments
        |> List.map (fun t -> (t.Placement.row, t.Placement.col))
      in
      Alcotest.(check int) "no tile reused"
        (List.length all)
        (List.length (List.sort_uniq compare all))
  | Error e -> Alcotest.fail e

let test_place_out_of_resources () =
  match Placement.place grid [ ("huge", 200, 0) ] with
  | Error msg -> Alcotest.(check bool) "names CU" true
                   (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected failure (only 128 CUs exist)"

let test_place_model_and_render () =
  let layer n_in n_out =
    {
      Model_ir.n_in;
      n_out;
      activation = "relu";
      weights = Array.make_matrix n_out n_in 0.1;
      biases = Array.make n_out 0.;
    }
  in
  let model = Model_ir.Dnn { name = "m"; layers = [| layer 7 12; layer 12 2 |] } in
  match Placement.place_model grid model with
  | Ok p ->
      Alcotest.(check int) "one region per layer" 2
        (List.length p.Placement.assignments);
      Alcotest.(check bool) "some utilization" true (Placement.utilization p > 0.);
      Alcotest.(check bool) "utilization bounded" true (Placement.utilization p <= 1.);
      let art = Placement.render p in
      Alcotest.(check int) "16 rows of 17 chars" (16 * 17) (String.length art);
      Alcotest.(check bool) "stage 0 visible" true (String.contains art '0');
      Alcotest.(check bool) "stage 1 visible" true (String.contains art '1')
  | Error e -> Alcotest.fail e

let test_place_adjacent_stages_wirelength () =
  match Placement.place grid [ ("a", 8, 8); ("b", 8, 8); ("c", 8, 8) ] with
  | Ok p ->
      (* Column-sweep packing keeps consecutive stages within a few columns
         of each other. *)
      Alcotest.(check bool) "short wires" true (Placement.wirelength p < 16.)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "alloc independent" `Quick test_alloc_independent_pack;
    Alcotest.test_case "alloc chain" `Quick test_alloc_chain_serializes;
    Alcotest.test_case "alloc dependencies" `Quick test_alloc_respects_dependencies;
    Alcotest.test_case "alloc capacity" `Quick test_alloc_capacity_error;
    Alcotest.test_case "alloc cycle" `Quick test_alloc_cycle_detected;
    Alcotest.test_case "alloc unknown dep" `Quick test_alloc_unknown_dependency;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "iisy graph svm" `Quick test_iisy_table_graph_svm;
    Alcotest.test_case "iisy graph dnn" `Quick test_iisy_table_graph_dnn_layers_chain;
    Alcotest.test_case "tofino stage alloc" `Quick test_tofino_stage_allocation_in_estimate;
    Alcotest.test_case "checkerboard" `Quick test_checkerboard;
    Alcotest.test_case "place demands" `Quick test_place_respects_demands;
    Alcotest.test_case "place no overlap" `Quick test_place_no_overlap;
    Alcotest.test_case "place overflow" `Quick test_place_out_of_resources;
    Alcotest.test_case "place model + render" `Quick test_place_model_and_render;
    Alcotest.test_case "place wirelength" `Quick test_place_adjacent_stages_wirelength;
  ]
