(* Ablations of the design choices DESIGN.md calls out:
   1. BO (RF surrogate + EI + feasibility weighting) vs pure random search
      at the same evaluation budget — the value of the surrogate.
   2. Feasibility-aware candidate pool vs ignoring feasibility — the value
      of encoding resources as constraints (paper §3.2.2).
   3. Local-search exploitation fraction — the incumbent-refinement pool.
   4. Multi-objective search — the accuracy-vs-footprint front. *)

open Homunculus_alchemy
open Homunculus_core
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng

let budget settings = settings.Bo.Optimizer.n_init + settings.Bo.Optimizer.n_iter

let best_feasible history =
  match Bo.History.best history with
  | Some e -> e.Bo.History.objective
  | None -> Float.nan

let run () =
  Bench_config.section "Ablation: search strategy on the AD design space";
  let platform = Platform.taurus () in
  let spec = Apps.ad_spec () in
  let settings = Bench_config.search_options.Compiler.bo_settings in
  let space =
    Space_builder.build platform Model_spec.Dnn
      ~input_dim:
        (Homunculus_ml.Dataset.n_features
           (Model_spec.load spec).Model_spec.train)
  in
  let eval rng config =
    Evaluator.to_bo_evaluation
      (Evaluator.evaluate rng platform spec Model_spec.Dnn config)
  in
  let indexed f ~index:_ config = f config in

  (* 1. BO vs random search, same budget, same seed. *)
  let bo_rng = Rng.create 71 in
  let bo_history =
    Bo.Optimizer.maximize bo_rng ~settings space
      ~f:(indexed (eval (Rng.create 72)))
  in
  let rs_rng = Rng.create 71 in
  let rs_history =
    Bo.Optimizer.random_search rs_rng ~n:(budget settings) space
      ~f:(eval (Rng.create 72))
  in
  Printf.printf "budget %d evals:\n" (budget settings);
  Printf.printf "  %-28s best F1 %.4f (feasible frac %.2f)\n" "BO (RF + EI + feas)"
    (best_feasible bo_history)
    (Bo.History.feasible_fraction bo_history);
  Printf.printf "  %-28s best F1 %.4f (feasible frac %.2f)\n" "random search"
    (best_feasible rs_history)
    (Bo.History.feasible_fraction rs_history);

  (* 2. Feasibility pressure: shrink the grid so much of the space is
     infeasible and compare how often each strategy wastes an evaluation. *)
  let tiny = Platform.with_resources platform ~rows:8 ~cols:8 in
  let tiny_space =
    Space_builder.build tiny Model_spec.Dnn
      ~input_dim:
        (Homunculus_ml.Dataset.n_features
           (Model_spec.load spec).Model_spec.train)
  in
  let tiny_eval rng config =
    Evaluator.to_bo_evaluation
      (Evaluator.evaluate rng tiny spec Model_spec.Dnn config)
  in
  let bo_tiny =
    Bo.Optimizer.maximize (Rng.create 73) ~settings tiny_space
      ~f:(indexed (tiny_eval (Rng.create 74)))
  in
  let rs_tiny =
    Bo.Optimizer.random_search (Rng.create 73) ~n:(budget settings) tiny_space
      ~f:(tiny_eval (Rng.create 74))
  in
  Printf.printf "\n8x8 grid (feasibility-constrained space):\n";
  Printf.printf "  %-28s feasible evals %.0f%%, best F1 %.4f\n" "BO"
    (100. *. Bo.History.feasible_fraction bo_tiny)
    (best_feasible bo_tiny);
  Printf.printf "  %-28s feasible evals %.0f%%, best F1 %.4f\n" "random search"
    (100. *. Bo.History.feasible_fraction rs_tiny)
    (best_feasible rs_tiny);

  (* 3. Exploitation (local neighborhood) fraction. *)
  Printf.printf "\nlocal-search fraction (exploit vs explore):\n";
  List.iter
    (fun frac ->
      let s = { settings with Bo.Optimizer.local_search_frac = frac } in
      let h =
        Bo.Optimizer.maximize (Rng.create 75) ~settings:s space
          ~f:(indexed (eval (Rng.create 76)))
      in
      Printf.printf "  frac %.2f: best F1 %.4f\n" frac (best_feasible h))
    [ 0.0; 0.5; 0.9 ];

  (* 4. Multi-objective: the accuracy-vs-footprint Pareto front. *)
  Printf.printf "\nmulti-objective (random scalarizations) Pareto front:\n";
  let points =
    Compiler.search_tradeoff ~options:Bench_config.search_options
      ~n_scalarizations:4 platform spec
  in
  List.iter
    (fun p ->
      Printf.printf "  F1 %.4f at %.0f%% of the grid (w = %.2f)\n"
        p.Compiler.artifact.Evaluator.objective
        (100. *. p.Compiler.resource_fraction)
        p.Compiler.weight)
    points
