(* Cross-module property tests: random DAG stage allocation, random DNN
   shapes through the grid simulator, runtime fidelity, schedule algebra. *)
open Homunculus_backends
open Homunculus_alchemy
module Rng = Homunculus_util.Rng
module Ml = Homunculus_ml

(* Random DAGs: table i may depend on any subset of earlier tables, so the
   graph is acyclic by construction. *)
let dag_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    list_repeat n (list_size (int_range 0 3) (int_range 0 (n - 1))) >|= fun deps ->
    List.mapi
      (fun i dep_indices ->
        {
          Stage_alloc.name = Printf.sprintf "t%d" i;
          depends_on =
            List.sort_uniq compare
              (List.filter_map
                 (fun j -> if j < i then Some (Printf.sprintf "t%d" j) else None)
                 dep_indices);
        })
      deps)

let prop_stage_alloc_sound =
  QCheck.Test.make ~name:"stage allocation respects dependencies" ~count:200
    (QCheck.make dag_gen)
    (fun tables ->
      match Stage_alloc.allocate ~n_stages:32 ~tables_per_stage:4 tables with
      | Error (Stage_alloc.Capacity_exceeded _) -> true (* acceptable outcome *)
      | Error _ -> false (* acyclic by construction; names all valid *)
      | Ok allocation ->
          let stage name = List.assoc name allocation.Stage_alloc.stage_of in
          List.for_all
            (fun t ->
              List.for_all
                (fun dep -> stage t.Stage_alloc.name > stage dep)
                t.Stage_alloc.depends_on)
            tables
          && Array.for_all (fun o -> o <= 4) allocation.Stage_alloc.occupancy)

let prop_stage_alloc_critical_path_lower_bound =
  QCheck.Test.make ~name:"allocation never beats the critical path" ~count:200
    (QCheck.make dag_gen)
    (fun tables ->
      match Stage_alloc.allocate ~n_stages:64 ~tables_per_stage:64 tables with
      | Ok allocation ->
          allocation.Stage_alloc.stages_used = Stage_alloc.critical_path tables
      | Error _ -> false)

(* Random DNN shapes: the cycle-accurate simulator must agree with the
   analytical Taurus model on every one. *)
let shape_gen =
  QCheck.Gen.(
    pair (int_range 2 40) (list_size (int_range 1 6) (int_range 2 32)))

let model_of_shape (input_dim, hidden) =
  let dims = Array.of_list ((input_dim :: hidden) @ [ 2 ]) in
  let layers =
    Array.init
      (Array.length dims - 1)
      (fun i ->
        {
          Model_ir.n_in = dims.(i);
          n_out = dims.(i + 1);
          activation = "relu";
          weights = Array.make_matrix dims.(i + 1) dims.(i) 0.1;
          biases = Array.make dims.(i + 1) 0.;
        })
  in
  Model_ir.Dnn { name = "m"; layers }

let prop_grid_sim_matches_analytic =
  QCheck.Test.make ~name:"grid sim = analytic model for random shapes" ~count:100
    (QCheck.make shape_gen)
    (fun shape ->
      Grid_sim.agrees_with_analytical Taurus.default_grid (model_of_shape shape))

let prop_taurus_estimate_deterministic =
  QCheck.Test.make ~name:"taurus estimate is a pure function" ~count:100
    (QCheck.make shape_gen)
    (fun shape ->
      let model = model_of_shape shape in
      Taurus.estimate Taurus.default_grid Resource.line_rate model
      = Taurus.estimate Taurus.default_grid Resource.line_rate model)

(* Runtime fidelity: quantized trees on bounded data agree with the float
   reference almost everywhere (ties at quantization boundaries aside). *)
let prop_tree_runtime_high_fidelity =
  QCheck.Test.make ~name:"tree runtime fidelity" ~count:30
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let x =
        Array.init 150 (fun _ ->
            [| Rng.uniform rng (-2.) 2.; Rng.uniform rng (-2.) 2. |])
      in
      let y = Array.map (fun r -> if r.(0) +. r.(1) > 0. then 1 else 0) x in
      let tree = Ml.Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
      let ir =
        Model_ir.Tree
          {
            name = "t";
            root = Ml.Decision_tree.Classifier.root tree;
            n_features = 2;
            n_classes = 2;
          }
      in
      Runtime.fidelity (Runtime.load ir) ir ~x > 0.9)

(* Schedule algebra. *)
let spec name =
  Model_spec.make ~name
    ~loader:(fun () ->
      let d =
        Ml.Dataset.create ~x:[| [| 0. |]; [| 1. |] |] ~y:[| 0; 1 |] ~n_classes:2 ()
      in
      Model_spec.data ~train:d ~test:d)
    ()

let schedule_gen =
  QCheck.Gen.(
    sized
      (fix (fun self n ->
           if n <= 0 then map (fun i -> Schedule.model (spec (Printf.sprintf "m%d" i))) (int_range 0 9)
           else
             frequency
               [
                 (1, map (fun i -> Schedule.model (spec (Printf.sprintf "m%d" i))) (int_range 0 9));
                 (2, map2 Schedule.seq (self (n / 2)) (self (n / 2)));
                 (2, map2 Schedule.par (self (n / 2)) (self (n / 2)));
               ])))

let prop_schedule_counts_consistent =
  QCheck.Test.make ~name:"schedule depth/width bounded by model count" ~count:200
    (QCheck.make schedule_gen)
    (fun s ->
      let n = Schedule.n_models s in
      Schedule.depth s >= 1 && Schedule.depth s <= n
      && Schedule.width s >= 1
      && Schedule.width s <= n
      && List.length (Schedule.models s) = n)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_stage_alloc_sound;
    QCheck_alcotest.to_alcotest prop_stage_alloc_critical_path_lower_bound;
    QCheck_alcotest.to_alcotest prop_grid_sim_matches_analytic;
    QCheck_alcotest.to_alcotest prop_taurus_estimate_deterministic;
    QCheck_alcotest.to_alcotest prop_tree_runtime_high_fidelity;
    QCheck_alcotest.to_alcotest prop_schedule_counts_consistent;
  ]
