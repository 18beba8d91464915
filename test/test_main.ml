(* Suites are sorted by name before registration, so the order of this list
   is not load-bearing and a rebase that reorders it cannot reshuffle test
   output. Duplicate suite names fail loudly (exit 2) instead of letting
   alcotest silently interleave two suites under one heading. *)

let suites =
  [
    ("rng", Test_rng.suite);
    ("stats", Test_stats.suite);
    ("mathx", Test_mathx.suite);
    ("tensor", Test_tensor.suite);
    ("dataset", Test_dataset.suite);
    ("metrics", Test_metrics.suite);
    ("mlp", Test_mlp.suite);
    ("train", Test_train.suite);
    ("classical", Test_classical.suite);
    ("bo", Test_bo.suite);
    ("bo_properties", Test_bo_properties.suite);
    ("netdata", Test_netdata.suite);
    ("par", Test_par.suite);
    ("backends", Test_backends.suite);
    ("inference", Test_inference.suite);
    ("json", Test_json.suite);
    ("mapping", Test_mapping.suite);
    ("deploy", Test_deploy.suite);
    ("folding", Test_folding.suite);
    ("io_binding", Test_io_binding.suite);
    ("simulation", Test_simulation.suite);
    ("spatial_ir", Test_spatial_ir.suite);
    ("artifacts", Test_artifacts.suite);
    ("training_extras", Test_training_extras.suite);
    ("train_engine", Test_train_engine.suite);
    ("p4_ir", Test_p4_ir.suite);
    ("properties", Test_properties.suite);
    ("metamorphic", Test_metamorphic.suite);
    ("check", Test_check.suite);
    ("end_to_end", Test_end_to_end.suite);
    ("alchemy", Test_alchemy.suite);
    ("core", Test_core.suite);
    ("resilience", Test_resilience.suite);
    ("autopilot", Test_autopilot.suite);
    ("serve", Test_serve.suite);
    ("monitor_model", Test_monitor_model.suite);
    ("serve_quantized", Test_serve_quantized.suite);
    ("loadgen", Test_loadgen.suite);
    ("policy", Test_policy.suite);
    ("stage_alloc_properties", Test_stage_alloc_properties.suite);
    ("placement_properties", Test_placement_properties.suite);
  ]

let () =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) suites
  in
  let rec first_duplicate = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then Some a else first_duplicate rest
    | _ -> None
  in
  (match first_duplicate sorted with
  | Some name ->
      Printf.eprintf "test_main: duplicate suite name %S\n" name;
      exit 2
  | None -> ());
  Alcotest.run "homunculus" sorted
