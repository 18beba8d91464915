(* Candidate filtering, space building, evaluation, fusion, and the full
   compiler driver. *)
open Homunculus_alchemy
open Homunculus_backends
open Homunculus_core
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng
module Par = Homunculus_par.Par
module Dataset = Homunculus_ml.Dataset

(* A small, learnable two-feature task. *)
let blob_dataset seed n =
  let rng = Rng.create seed in
  let x =
    Array.init n (fun i ->
        let mu = if i mod 2 = 0 then -2. else 2. in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init n (fun i -> i mod 2) in
  Dataset.create ~feature_names:[| "a"; "b" |] ~x ~y ~n_classes:2 ()

let blob_spec ?(name = "blobs") ?algorithms () =
  Model_spec.make ~name ?algorithms
    ~loader:(fun () ->
      Model_spec.data ~train:(blob_dataset 1 120) ~test:(blob_dataset 2 60))
    ()

let cluster_spec ?(name = "clusters") () =
  Model_spec.make ~name ~metric:Model_spec.V_measure
    ~algorithms:[ Model_spec.Kmeans ]
    ~loader:(fun () ->
      Model_spec.data ~train:(blob_dataset 3 120) ~test:(blob_dataset 4 60))
    ()

let tiny_options =
  {
    Compiler.default_options with
    Compiler.bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 3;
        n_iter = 3;
        pool_size = 32;
      };
  }

(* Candidate *)

let test_metric_compatibility () =
  Alcotest.(check bool) "vmeasure kmeans" true
    (Candidate.metric_compatible Model_spec.V_measure Model_spec.Kmeans);
  Alcotest.(check bool) "vmeasure dnn" false
    (Candidate.metric_compatible Model_spec.V_measure Model_spec.Dnn);
  Alcotest.(check bool) "f1 kmeans" false
    (Candidate.metric_compatible Model_spec.F1 Model_spec.Kmeans);
  Alcotest.(check bool) "f1 tree" true
    (Candidate.metric_compatible Model_spec.F1 Model_spec.Tree)

let test_platform_compatibility () =
  Alcotest.(check bool) "taurus dnn" true
    (Candidate.platform_compatible (Platform.taurus ()) Model_spec.Dnn);
  Alcotest.(check bool) "tofino dnn" false
    (Candidate.platform_compatible (Platform.tofino ()) Model_spec.Dnn)

let test_filter_intersects () =
  let algos = Candidate.filter (Platform.taurus ()) (blob_spec ()) in
  (* F1 on Taurus: dnn/svm/tree survive, kmeans is metric-incompatible. *)
  Alcotest.(check (list string)) "supervised survive" [ "dnn"; "svm"; "tree" ]
    (List.map Model_spec.algorithm_to_string algos)

let test_filter_kmeans_for_clustering () =
  let algos = Candidate.filter (Platform.tofino ()) (cluster_spec ()) in
  Alcotest.(check (list string)) "kmeans only" [ "kmeans" ]
    (List.map Model_spec.algorithm_to_string algos)

(* Space builder *)

let test_dnn_space_contents () =
  let s = Space_builder.build (Platform.taurus ()) Model_spec.Dnn ~input_dim:7 in
  Alcotest.(check bool) "has n_layers" true
    (Bo.Design_space.find_param s "n_layers" <> None);
  Alcotest.(check bool) "has learning_rate" true
    (Bo.Design_space.find_param s "learning_rate" <> None);
  Alcotest.(check bool) "has width9" true
    (Bo.Design_space.find_param s "width9" <> None);
  Alcotest.(check bool) "has weight_decay" true
    (Bo.Design_space.find_param s "weight_decay" <> None);
  Alcotest.(check int) "dim = 7 + 10 widths" 17 (Bo.Design_space.dim s)

let test_width_bound_shrinks_with_grid () =
  let big = Space_builder.dnn_width_bound (Platform.taurus ()) ~input_dim:7 in
  let small =
    Space_builder.dnn_width_bound
      (Platform.with_resources (Platform.taurus ()) ~rows:4 ~cols:4)
      ~input_dim:7
  in
  Alcotest.(check bool) "smaller grid, narrower bound" true (small < big);
  Alcotest.(check bool) "clamped sane" true (small >= 4 && big <= 64)

let test_kmeans_space_tofino_budget () =
  let s =
    Space_builder.build
      (Platform.with_tables (Platform.tofino ()) 5)
      Model_spec.Kmeans ~input_dim:7
  in
  match Bo.Design_space.find_param s "k" with
  | Some { Bo.Param.kind = Bo.Param.Int { hi; _ }; _ } ->
      Alcotest.(check int) "k bounded by tables" 5 hi
  | _ -> Alcotest.fail "k parameter missing"

let test_hidden_layers_decoding () =
  let config =
    Bo.Config.make
      ([ ("n_layers", Bo.Param.Int_value 2) ]
      @ List.init 10 (fun i ->
            (Printf.sprintf "width%d" i, Bo.Param.Int_value (i + 3))))
  in
  Alcotest.(check (array int)) "first two widths" [| 3; 4 |]
    (Space_builder.hidden_layers_of_config config)

(* Evaluator *)

let sample_config space = Bo.Design_space.sample (Rng.create 5) space

let test_evaluator_dnn_artifact () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let space = Space_builder.build platform Model_spec.Dnn ~input_dim:2 in
  let artifact =
    Evaluator.evaluate (Rng.create 6) platform spec Model_spec.Dnn
      (sample_config space)
  in
  Alcotest.(check bool) "objective sane" true
    (artifact.Evaluator.objective >= 0. && artifact.Evaluator.objective <= 1.);
  Alcotest.(check string) "model named after spec" "blobs"
    (Model_ir.name artifact.Evaluator.model_ir);
  Alcotest.(check string) "algorithm" "dnn"
    (Model_ir.algorithm artifact.Evaluator.model_ir)

let test_evaluator_learns_blobs () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let config =
    Bo.Config.make
      ([
         ("n_layers", Bo.Param.Int_value 1);
         ("learning_rate", Bo.Param.Real_value 0.01);
         ("batch_size", Bo.Param.Index_value 1);
         ("epochs", Bo.Param.Int_value 25);
         ("activation", Bo.Param.Index_value 0);
         ("weight_decay", Bo.Param.Real_value 1e-6);
         ("lr_decay", Bo.Param.Index_value 2);
       ]
      @ List.init 10 (fun i ->
            (Printf.sprintf "width%d" i, Bo.Param.Int_value 8)))
  in
  let artifact =
    Evaluator.evaluate (Rng.create 7) platform spec Model_spec.Dnn config
  in
  Alcotest.(check bool) "high f1 on separable blobs" true
    (artifact.Evaluator.objective > 0.9);
  Alcotest.(check bool) "feasible" true
    artifact.Evaluator.verdict.Resource.feasible

let test_evaluator_tree_and_svm () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let tree_config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let a = Evaluator.evaluate (Rng.create 8) platform spec Model_spec.Tree tree_config in
  Alcotest.(check string) "tree" "tree" (Model_ir.algorithm a.Evaluator.model_ir);
  Alcotest.(check bool) "tree learns" true (a.Evaluator.objective > 0.85);
  let svm_config =
    Bo.Config.make
      [ ("lambda", Bo.Param.Real_value 1e-4); ("epochs", Bo.Param.Int_value 15) ]
  in
  let b = Evaluator.evaluate (Rng.create 9) platform spec Model_spec.Svm svm_config in
  Alcotest.(check bool) "svm learns" true (b.Evaluator.objective > 0.85)

let test_evaluator_kmeans_vmeasure () =
  let platform = Platform.taurus () in
  let spec = cluster_spec () in
  let config = Bo.Config.make [ ("k", Bo.Param.Int_value 2) ] in
  let a = Evaluator.evaluate (Rng.create 10) platform spec Model_spec.Kmeans config in
  Alcotest.(check bool) "clusters align with blobs" true (a.Evaluator.objective > 0.7)

let test_evaluator_bo_metadata () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let space = Space_builder.build platform Model_spec.Dnn ~input_dim:2 in
  let a =
    Evaluator.evaluate (Rng.create 11) platform spec Model_spec.Dnn
      (sample_config space)
  in
  let e = Evaluator.to_bo_evaluation a in
  Alcotest.(check bool) "params metadata" true (List.mem_assoc "params" e.Bo.Optimizer.metadata);
  Alcotest.(check bool) "CU metadata" true (List.mem_assoc "CU" e.Bo.Optimizer.metadata);
  Alcotest.(check (float 0.)) "objective copied" a.Evaluator.objective
    e.Bo.Optimizer.objective

(* Fusion *)

let named_spec name features seed =
  Model_spec.make ~name
    ~loader:(fun () ->
      let rng = Rng.create seed in
      let n = 60 in
      let x =
        Array.init n (fun i ->
            Array.init (Array.length features) (fun _ ->
                Rng.gaussian rng ~mu:(if i mod 2 = 0 then -2. else 2.) ()))
      in
      let y = Array.init n (fun i -> i mod 2) in
      let mk () = Dataset.create ~feature_names:features ~x ~y ~n_classes:2 () in
      Model_spec.data ~train:(mk ()) ~test:(mk ()))
    ()

let test_feature_overlap () =
  let a = named_spec "a" [| "x"; "y"; "z" |] 1 in
  let b = named_spec "b" [| "y"; "z"; "w" |] 2 in
  Alcotest.(check (float 1e-9)) "jaccard 2/4" 0.5 (Fusion.feature_overlap a b);
  let c = named_spec "c" [| "p"; "q" |] 3 in
  Alcotest.(check (float 1e-9)) "disjoint" 0. (Fusion.feature_overlap a c)

let test_can_fuse () =
  let a = named_spec "a" [| "x"; "y"; "z" |] 1 in
  let b = named_spec "b" [| "x"; "y"; "w" |] 2 in
  Alcotest.(check bool) "overlapping" true (Fusion.can_fuse a b);
  let c = named_spec "c" [| "p"; "q" |] 3 in
  Alcotest.(check bool) "disjoint" false (Fusion.can_fuse a c)

let test_fuse_union_schema () =
  let a = named_spec "a" [| "x"; "y" |] 1 in
  let b = named_spec "b" [| "y"; "z" |] 2 in
  let fused = Fusion.fuse ~name:"ab" a b in
  let data = Model_spec.load fused in
  Alcotest.(check (array string)) "union schema" [| "x"; "y"; "z" |]
    data.Model_spec.train.Dataset.feature_names;
  (* Pooled samples from both sources. *)
  Alcotest.(check int) "pooled train" 120 (Dataset.n_samples data.Model_spec.train)

let test_fuse_fills_missing_with_zero () =
  let a = named_spec "a" [| "x" |] 1 in
  let b = named_spec "b" [| "x"; "z" |] 2 in
  let fused = Fusion.fuse ~name:"ab" a b in
  let data = Model_spec.load fused in
  (* Rows originating from [a] have z = 0. *)
  let da = Model_spec.load a in
  let n_a = Dataset.n_samples da.Model_spec.train in
  let z_col = Option.get (Dataset.feature_index data.Model_spec.train "z") in
  let all_zero = ref true in
  for i = 0 to n_a - 1 do
    if data.Model_spec.train.Dataset.x.(i).(z_col) <> 0. then all_zero := false
  done;
  Alcotest.(check bool) "a-rows have zero z" true !all_zero

(* Compiler *)

let test_search_model_feasible_result () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  Alcotest.(check bool) "feasible" true
    r.Compiler.artifact.Evaluator.verdict.Resource.feasible;
  Alcotest.(check bool) "good objective" true
    (r.Compiler.artifact.Evaluator.objective > 0.8);
  Alcotest.(check int) "one algorithm searched" 1 (List.length r.Compiler.histories);
  Alcotest.(check bool) "code emitted" true (r.Compiler.code <> None)

let test_search_model_budget_split () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree; Model_spec.Svm ] ())
  in
  Alcotest.(check int) "two searches" 2 (List.length r.Compiler.histories);
  List.iter
    (fun (_, h) ->
      (* n_iter 3 split over 2 algorithms -> 3 init + 1 guided each. *)
      Alcotest.(check int) "per-algorithm budget" 4 (Bo.History.length h))
    r.Compiler.histories

let test_search_model_no_candidates () =
  (* V-measure spec restricted to DNN: metric filter leaves nothing. *)
  let bad =
    Model_spec.make ~name:"impossible" ~metric:Model_spec.V_measure
      ~algorithms:[ Model_spec.Dnn ]
      ~loader:(fun () ->
        Model_spec.data ~train:(blob_dataset 1 30) ~test:(blob_dataset 2 20))
      ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Compiler.search_model ~options:tiny_options (Platform.taurus ()) bad);
       false
     with Compiler.No_feasible_model _ -> true)

let test_generate_schedule_dedup () =
  let spec = blob_spec ~algorithms:[ Model_spec.Tree ] () in
  let chain = Schedule.(model spec >>> model spec >>> model spec) in
  let r = Compiler.generate ~options:tiny_options (Platform.taurus ()) chain in
  Alcotest.(check int) "searched once" 1 (List.length r.Compiler.models);
  Alcotest.(check int) "three verdicts combined" 3
    (List.length r.Compiler.combined.Schedule.per_model)

let test_generate_fusion_pass () =
  let a = named_spec "fa" [| "x"; "y" |] 5 in
  let b = named_spec "fb" [| "x"; "y" |] 6 in
  let options = { tiny_options with Compiler.fusion_threshold = Some 0.5 } in
  let r =
    Compiler.generate ~options (Platform.taurus ())
      Schedule.(model a ||| model b)
  in
  (* The parallel pair fuses into a single searched model. *)
  Alcotest.(check int) "one fused model" 1 (List.length r.Compiler.models);
  Alcotest.(check string) "fused name" "fa+fb"
    (Model_spec.name (List.hd r.Compiler.models).Compiler.spec)

let test_generate_without_fusion_keeps_two () =
  let a = named_spec "ga" [| "x"; "y" |] 7 in
  let b = named_spec "gb" [| "x"; "y" |] 8 in
  let r =
    Compiler.generate ~options:tiny_options (Platform.taurus ())
      Schedule.(model a ||| model b)
  in
  Alcotest.(check int) "two models" 2 (List.length r.Compiler.models)

let test_emit_code_dispatch () =
  let km = Model_ir.Kmeans { name = "k"; centroids = Array.make_matrix 3 4 0.1 } in
  let spatial = Compiler.emit_code (Platform.taurus ()) km in
  let p4 = Compiler.emit_code (Platform.tofino ()) km in
  let has code sub =
    let n = String.length code and m = String.length sub in
    let rec go i = i + m <= n && (String.sub code i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "spatial" true (has spatial "Accel {");
  Alcotest.(check bool) "p4 program" true (has p4 "control Ingress");
  Alcotest.(check bool) "p4 entries appended" true (has p4 "table_add")

(* Dispatch: the [dispatch] hook replaces the in-process pool for exact
   evaluations. A hook that evaluates each batch through
   [Compiler.worker_eval] must commit the same history, bit for bit, and
   pick the same winner as the inline search. *)

let dispatch_options =
  {
    tiny_options with
    Compiler.bo_settings =
      {
        tiny_options.Compiler.bo_settings with
        Bo.Optimizer.n_iter = 4;
        batch_size = 2;
      };
  }

let bits = Int64.bits_of_float

let entries_bit_identical (a : Bo.History.entry) (b : Bo.History.entry) =
  a.Bo.History.iteration = b.Bo.History.iteration
  && Bo.Config.equal a.config b.config
  && bits a.objective = bits b.objective
  && a.feasible = b.feasible && a.pruned = b.pruned
  && List.equal
       (fun (k1, v1) (k2, v2) -> k1 = k2 && bits v1 = bits v2)
       a.metadata b.metadata

let test_dispatch_worker_eval_identical () =
  let platform = Platform.tofino () in
  let spec = blob_spec ~name:"dblobs" ~algorithms:[ Model_spec.Tree ] () in
  let inline = Compiler.search_model ~options:dispatch_options platform spec in
  let dispatched = ref 0 in
  let dispatch ~scope batch =
    dispatched := !dispatched + Array.length batch;
    Par.run_in_parallel
      (Array.map
         (fun (index, config) () ->
           Compiler.worker_eval ~options:dispatch_options ~platform
             ~specs:[ spec ] ~scope ~index ~config)
         batch)
  in
  let r =
    Compiler.search_model
      ~options:{ dispatch_options with Compiler.dispatch = Some dispatch }
      platform spec
  in
  Alcotest.(check int) "every evaluation went through the hook"
    (Bo.History.length inline.Compiler.history)
    !dispatched;
  Alcotest.(check bool) "history bit-identical" true
    (List.equal entries_bit_identical
       (Bo.History.entries inline.Compiler.history)
       (Bo.History.entries r.Compiler.history));
  Alcotest.(check bool) "winner config identical" true
    (Bo.Config.equal inline.Compiler.artifact.Evaluator.config
       r.Compiler.artifact.Evaluator.config);
  Alcotest.(check bool) "winner objective bit-identical" true
    (bits inline.Compiler.artifact.Evaluator.objective
    = bits r.Compiler.artifact.Evaluator.objective)

let test_dispatch_prune_refused () =
  let options =
    {
      dispatch_options with
      Compiler.prune = Some Bo.Asha.default_settings;
      dispatch = Some (fun ~scope:_ _ -> [||]);
    }
  in
  Alcotest.check_raises "guard refuses dispatch + prune"
    (Invalid_argument
       "Compiler.search_model: dispatch is incompatible with prune")
    (fun () ->
      ignore
        (Compiler.search_model ~options (Platform.tofino ())
           (blob_spec ~algorithms:[ Model_spec.Tree ] ())))

(* Rung pruning keeps the --jobs guarantee: the ASHA thresholds are frozen
   per proposal batch, so which candidates stop early, and at which epoch,
   cannot depend on how many workers ran the batch. On FPGA, where every
   candidate's shape fits and so every candidate trains. *)
let test_pruned_search_deterministic_across_worker_counts () =
  let options =
    {
      tiny_options with
      Compiler.emit_code = false;
      bo_settings =
        {
          tiny_options.Compiler.bo_settings with
          Bo.Optimizer.n_init = 4;
          n_iter = 8;
          batch_size = 4;
        };
      prune = Some Bo.Asha.default_settings;
    }
  in
  let run jobs =
    Par.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Par.set_default_jobs (Par.recommended_jobs ()))
      (fun () ->
        Compiler.search_model ~options (Platform.fpga ())
          (blob_spec ~name:"pblobs" ~algorithms:[ Model_spec.Dnn ] ()))
  in
  let h1 = (run 1).Compiler.history and h4 = (run 4).Compiler.history in
  Alcotest.(check bool) "every candidate trained" true
    (List.for_all
       (fun e -> List.assoc "epochs_trained" e.Bo.History.metadata > 0.)
       (Bo.History.entries h1));
  Alcotest.(check bool) "some candidates pruned" true
    (List.exists (fun e -> e.Bo.History.pruned) (Bo.History.entries h1));
  Alcotest.(check bool) "history bit-identical at 1 and 4 workers" true
    (List.equal entries_bit_identical (Bo.History.entries h1)
       (Bo.History.entries h4))

(* Report *)

let test_search_tradeoff_front () =
  let points =
    Compiler.search_tradeoff ~options:tiny_options ~n_scalarizations:3
      (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  Alcotest.(check bool) "non-empty front" true (points <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "feasible" true
        p.Compiler.artifact.Evaluator.verdict.Resource.feasible;
      Alcotest.(check bool) "fraction sane" true
        (p.Compiler.resource_fraction >= 0. && p.Compiler.resource_fraction <= 1.))
    points;
  (* Sorted by descending objective; resources must then be ascending or the
     point would be dominated. *)
  let rec check_pareto = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "objective descending" true
          (a.Compiler.artifact.Evaluator.objective
          >= b.Compiler.artifact.Evaluator.objective);
        Alcotest.(check bool) "resources not dominated" true
          (a.Compiler.resource_fraction >= b.Compiler.resource_fraction);
        check_pareto rest
    | [ _ ] | [] -> ()
  in
  check_pareto points

let test_evaluator_deterministic_per_config () =
  (* The compiler derives a per-config seed, so re-proposals measure the
     same; the evaluator itself must be a pure function of its rng. *)
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let a = Evaluator.evaluate (Rng.create 42) platform spec Model_spec.Tree config in
  let b = Evaluator.evaluate (Rng.create 42) platform spec Model_spec.Tree config in
  Alcotest.(check (float 0.)) "same objective" a.Evaluator.objective
    b.Evaluator.objective

(* The shape check: a DNN too big for a 2x2 grid is judged on its shape and
   never trained. The artifact is the skeleton, named after the spec, with
   the placeholder objective, and no evaluation is charged. *)
let test_evaluator_shape_check () =
  let tiny = Platform.with_resources (Platform.taurus ()) ~rows:2 ~cols:2 in
  let space = Space_builder.build (Platform.taurus ()) Model_spec.Dnn ~input_dim:2 in
  let config = Bo.Design_space.sample (Rng.create 5) space in
  Evaluator.Timing.reset ();
  let a = Evaluator.evaluate (Rng.create 1) tiny (blob_spec ()) Model_spec.Dnn config in
  Alcotest.(check bool) "infeasible" false a.Evaluator.verdict.Resource.feasible;
  Alcotest.(check string) "named after the spec" "blobs"
    (Model_ir.name a.Evaluator.model_ir);
  Alcotest.(check (float 0.)) "placeholder objective" 0. a.Evaluator.objective;
  Alcotest.(check bool) "not pruned" false a.Evaluator.pruned;
  Alcotest.(check int) "never trained" 0 a.Evaluator.epochs_trained;
  Alcotest.(check int) "nothing charged" 0
    (Evaluator.Timing.snapshot ()).Evaluator.Timing.evaluations

(* A spec at the botnet-drift compile spec's size (4,553 x 30 train rows,
   1,688 test rows): two noisy Gaussian classes. *)
let wide_dataset seed n =
  let rng = Rng.create seed in
  let y = Array.init n (fun i -> i mod 2) in
  let x =
    Array.init n (fun i ->
        let mu = if y.(i) = 1 then 0.4 else -0.4 in
        Array.init 30 (fun j -> (10. *. float_of_int j) +. Rng.gaussian rng ~mu ()))
  in
  Dataset.create ~x ~y ~n_classes:2 ()

let wide_spec ?(on_load = ignore) () =
  Model_spec.make ~name:"wide" ~algorithms:[ Model_spec.Svm ]
    ~loader:(fun () ->
      on_load ();
      Model_spec.data ~train:(wide_dataset 31 4553) ~test:(wide_dataset 32 1688))
    ()

(* Once the spec's standardized splits exist, an SVM evaluation allocates
   only its own training, lowering and estimate: the scaler is not refitted
   and the splits are not rebuilt per candidate. Refitting them cost about
   1.6 M minor words per evaluation at this size; the count is the same on
   any host. *)
let test_evaluator_svm_allocation () =
  let platform = Platform.tofino () in
  let spec = wide_spec () in
  let config =
    Bo.Config.make
      [ ("lambda", Bo.Param.Real_value 1e-4); ("epochs", Bo.Param.Int_value 2) ]
  in
  let first = Evaluator.evaluate (Rng.create 3) platform spec Model_spec.Svm config in
  let before = Gc.minor_words () in
  let second = Evaluator.evaluate (Rng.create 3) platform spec Model_spec.Svm config in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "same objective" first.Evaluator.objective
    second.Evaluator.objective;
  if words >= 20_000. then
    Alcotest.failf "%.0f minor words for a second SVM evaluation (limit 20000)"
      words

(* A trained DNN evaluation at the dnn-taurus compile spec's size (1,500 x 7
   NSL-KDD rows per split; the fit holds out 300 for validation) scores its
   validation split every epoch and its test split once, both through
   [Mlp.predict_all_into] on batch-sized workspaces, into verdict buffers
   built once per evaluation. Scoring through [predict_all] allocated about
   913 k minor words per evaluation at this size; the count is the same on
   any host. *)
let nslkdd_spec () =
  Model_spec.make ~name:"nsl" ~algorithms:[ Model_spec.Dnn ]
    ~loader:(fun () ->
      let train, test =
        Homunculus_netdata.Nslkdd.generate_split (Rng.create 1) ~n_train:1500
          ~n_test:1500 ()
      in
      Model_spec.data ~train ~test)
    ()

let dnn_config =
  Bo.Config.make
    [
      ("n_layers", Bo.Param.Int_value 2);
      ("width0", Bo.Param.Int_value 43);
      ("width1", Bo.Param.Int_value 19);
      ("learning_rate", Bo.Param.Real_value 3e-3);
      ("batch_size", Bo.Param.Index_value 1);
      ("epochs", Bo.Param.Int_value 14);
      ("activation", Bo.Param.Index_value 0);
      ("weight_decay", Bo.Param.Real_value 1e-4);
      ("lr_decay", Bo.Param.Index_value 2);
    ]

let test_evaluator_dnn_allocation () =
  let platform = Platform.fpga () in
  let spec = nslkdd_spec () in
  let run () =
    Evaluator.evaluate (Rng.create 3) platform spec Model_spec.Dnn dnn_config
  in
  let first = run () in
  let before = Gc.minor_words () in
  let second = run () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "trained" true (second.Evaluator.epochs_trained > 0);
  Alcotest.(check (float 0.)) "same objective" first.Evaluator.objective
    second.Evaluator.objective;
  if words >= 400_000. then
    Alcotest.failf "%.0f minor words for a trained DNN evaluation (limit 400000)"
      words

(* Every call returns the one record built on the first, also when two
   domains make the first call together; the loader runs once. *)
let test_standardized_shared () =
  let loads = Atomic.make 0 in
  let spec = wide_spec ~on_load:(fun () -> Atomic.incr loads) () in
  let racers =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Model_spec.standardized spec))
  in
  let results = List.map Domain.join racers in
  let s = Model_spec.standardized spec in
  List.iter
    (fun r ->
      Alcotest.(check bool) "same record" true (r == s);
      Alcotest.(check bool) "same train split" true
        (r.Model_spec.train == s.Model_spec.train);
      Alcotest.(check bool) "same test split" true
        (r.Model_spec.test == s.Model_spec.test))
    results;
  Alcotest.(check bool) "still the same" true (Model_spec.standardized spec == s);
  Alcotest.(check int) "loaded once" 1 (Atomic.get loads);
  let scaler, train = Homunculus_ml.Scaler.fit_dataset (Model_spec.load spec).Model_spec.train in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check (array int64)) "scaler mean"
    (bits (Homunculus_ml.Scaler.mean scaler))
    (bits (Homunculus_ml.Scaler.mean s.Model_spec.scaler));
  Alcotest.(check (array int64)) "scaled row"
    (bits train.Dataset.x.(17)) (bits s.Model_spec.train.Dataset.x.(17))

(* Skipping shape-infeasible DNNs must change nothing the search decides:
   the history of a search on a 10x10 grid, where most of the DNN space
   cannot fit, matches the one recorded when every candidate trained
   (Dse_golden), proposal for proposal. Every infeasible entry was skipped,
   since a DNN's verdict is its shape's. *)
let test_shape_check_golden_search () =
  let platform = Platform.with_resources (Platform.taurus ()) ~rows:10 ~cols:10 in
  let spec =
    Model_spec.make ~name:"AD-10x10" ~metric:Model_spec.F1
      ~algorithms:[ Model_spec.Dnn ]
      ~loader:(fun () ->
        let train, test =
          Homunculus_netdata.Nslkdd.generate_split (Rng.create 2023) ~n_train:300
            ~n_test:150 ()
        in
        Model_spec.data ~train ~test)
      ()
  in
  let options =
    {
      Compiler.default_options with
      Compiler.seed = 2023;
      bo_settings =
        {
          Bo.Optimizer.default_settings with
          Bo.Optimizer.n_init = 16;
          n_iter = 8;
          pool_size = 64;
          batch_size = 1;
        };
      emit_code = false;
    }
  in
  let r = Compiler.search_model ~options platform spec in
  let entries = Bo.History.entries r.Compiler.history in
  Alcotest.(check (list (triple string bool (option int64))))
    "configs, verdicts and feasible objectives" Dse_golden.entries
    (List.map
       (fun (e : Bo.History.entry) ->
         ( Bo.Serialize.config_key e.config,
           e.feasible,
           if e.feasible then Some (Int64.bits_of_float e.objective) else None ))
       entries);
  Alcotest.(check string) "winner" Dse_golden.winner_key
    (Bo.Serialize.config_key r.Compiler.artifact.Evaluator.config);
  Alcotest.(check int64) "winner objective" Dse_golden.winner_objective_bits
    (Int64.bits_of_float r.Compiler.artifact.Evaluator.objective);
  List.iter
    (fun (e : Bo.History.entry) ->
      Alcotest.(check bool) "infeasible exactly when untrained" (not e.feasible)
        (List.assoc "epochs_trained" e.metadata = 0.))
    entries

(* Regression: an artifact whose objective came back NaN (degenerate metric)
   must rank strictly below every real-valued artifact — feasible or not —
   and must never displace an incumbent through the running-best fold. *)
let test_compare_artifacts_nan_ranks_last () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let real = Evaluator.evaluate (Rng.create 8) platform spec Model_spec.Tree config in
  let nan_artifact = { real with Evaluator.objective = Float.nan } in
  Alcotest.(check bool) "real beats NaN" true
    (Evaluator.compare_artifacts real nan_artifact < 0);
  Alcotest.(check bool) "NaN loses to real" true
    (Evaluator.compare_artifacts nan_artifact real > 0);
  Alcotest.(check int) "NaN ties itself" 0
    (Evaluator.compare_artifacts nan_artifact nan_artifact);
  (* The fold the parallel search uses for its running best. *)
  (match Evaluator.better_artifact (Some real) nan_artifact with
  | Some kept ->
      Alcotest.(check bool) "incumbent survives NaN challenger" true
        (Int64.bits_of_float kept.Evaluator.objective
        = Int64.bits_of_float real.Evaluator.objective)
  | None -> Alcotest.fail "fold dropped the incumbent");
  (match Evaluator.better_artifact (Some nan_artifact) real with
  | Some kept ->
      Alcotest.(check bool) "real displaces NaN incumbent" true
        (not (Float.is_nan kept.Evaluator.objective))
  | None -> Alcotest.fail "fold dropped both")

let test_report_rendering () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  let row = Report.model_row r in
  Alcotest.(check bool) "row mentions model" true
    (String.length row > 10 && String.sub row 0 5 = "blobs");
  let summary = Report.verdict_summary r.Compiler.artifact.Evaluator.verdict in
  Alcotest.(check bool) "summary mentions feasibility" true
    (String.length summary > 0);
  let regret = Report.render_regret r.Compiler.history in
  Alcotest.(check bool) "plot non-empty" true (String.length regret > 50)

let test_report_regret_series_monotone () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  let series = Report.regret_series r.Compiler.history in
  let ok = ref true in
  for i = 1 to Array.length series - 1 do
    if snd series.(i) < snd series.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok

let suite =
  [
    Alcotest.test_case "metric compatibility" `Quick test_metric_compatibility;
    Alcotest.test_case "platform compatibility" `Quick test_platform_compatibility;
    Alcotest.test_case "filter intersects" `Quick test_filter_intersects;
    Alcotest.test_case "filter clustering" `Quick test_filter_kmeans_for_clustering;
    Alcotest.test_case "dnn space contents" `Quick test_dnn_space_contents;
    Alcotest.test_case "width bound vs grid" `Quick test_width_bound_shrinks_with_grid;
    Alcotest.test_case "kmeans space budget" `Quick test_kmeans_space_tofino_budget;
    Alcotest.test_case "hidden layer decoding" `Quick test_hidden_layers_decoding;
    Alcotest.test_case "evaluator dnn artifact" `Quick test_evaluator_dnn_artifact;
    Alcotest.test_case "evaluator learns blobs" `Quick test_evaluator_learns_blobs;
    Alcotest.test_case "evaluator tree/svm" `Quick test_evaluator_tree_and_svm;
    Alcotest.test_case "evaluator kmeans" `Quick test_evaluator_kmeans_vmeasure;
    Alcotest.test_case "evaluator metadata" `Quick test_evaluator_bo_metadata;
    Alcotest.test_case "evaluator svm allocation" `Quick test_evaluator_svm_allocation;
    Alcotest.test_case "evaluator dnn allocation" `Quick test_evaluator_dnn_allocation;
    Alcotest.test_case "standardized splits shared" `Quick test_standardized_shared;
    Alcotest.test_case "fusion overlap" `Quick test_feature_overlap;
    Alcotest.test_case "fusion can_fuse" `Quick test_can_fuse;
    Alcotest.test_case "fusion union schema" `Quick test_fuse_union_schema;
    Alcotest.test_case "fusion zero fill" `Quick test_fuse_fills_missing_with_zero;
    Alcotest.test_case "search model result" `Quick test_search_model_feasible_result;
    Alcotest.test_case "search budget split" `Quick test_search_model_budget_split;
    Alcotest.test_case "search no candidates" `Quick test_search_model_no_candidates;
    Alcotest.test_case "generate dedup" `Quick test_generate_schedule_dedup;
    Alcotest.test_case "generate fusion" `Quick test_generate_fusion_pass;
    Alcotest.test_case "generate no fusion" `Quick test_generate_without_fusion_keeps_two;
    Alcotest.test_case "emit code dispatch" `Quick test_emit_code_dispatch;
    Alcotest.test_case "dispatch via worker_eval is bit-identical" `Quick
      test_dispatch_worker_eval_identical;
    Alcotest.test_case "dispatch + prune refused" `Quick
      test_dispatch_prune_refused;
    Alcotest.test_case "pruned search identical across worker counts" `Quick
      test_pruned_search_deterministic_across_worker_counts;
    Alcotest.test_case "tradeoff pareto front" `Quick test_search_tradeoff_front;
    Alcotest.test_case "compare_artifacts NaN ranks last" `Quick
      test_compare_artifacts_nan_ranks_last;
    Alcotest.test_case "evaluator deterministic" `Quick
      test_evaluator_deterministic_per_config;
    Alcotest.test_case "evaluator shape check" `Quick test_evaluator_shape_check;
    Alcotest.test_case "shape check golden search" `Quick
      test_shape_check_golden_search;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "report regret monotone" `Quick test_report_regret_series_monotone;
  ]
