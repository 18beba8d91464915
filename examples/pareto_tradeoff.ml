(* Multi-objective search: accuracy vs. resource footprint.

   The paper frames Homunculus's DSE as constrained single-objective
   optimization, but notes (§6) that "multi-objective optimization is a
   crucial matter because real-world applications often rely on a trade-off
   between several objectives" — exactly the trade Table 5 surfaces, where
   the higher-F1 generated models burn more LUTs and watts. This example
   runs the compiler's random-scalarization mode and prints the resulting
   accuracy-vs-footprint Pareto front.

   Run with: dune exec examples/pareto_tradeoff.exe *)

open Homunculus_alchemy
open Homunculus_core
module Rng = Homunculus_util.Rng
module Nslkdd = Homunculus_netdata.Nslkdd

let () =
  let spec =
    Model_spec.make ~name:"anomaly_detection" ~algorithms:[ Model_spec.Dnn ]
      ~loader:(fun () ->
        let rng = Rng.create 11 in
        let train, test = Nslkdd.generate_split rng ~n_train:1500 ~n_test:600 () in
        Model_spec.data ~train ~test)
      ()
  in
  let platform = Platform.taurus () in
  let points =
    Compiler.search_tradeoff ~options:Compiler.quick_options ~n_scalarizations:5
      platform spec
  in
  Printf.printf "%-8s %10s %8s %8s %8s\n" "F1" "grid use" "params" "CUs" "weight";
  List.iter
    (fun p ->
      let a = p.Compiler.artifact in
      Printf.printf "%-8.2f %9.0f%% %8d %8d %8.2f\n"
        (100. *. a.Evaluator.objective)
        (100. *. p.Compiler.resource_fraction)
        (Homunculus_backends.Model_ir.param_count a.Evaluator.model_ir)
        (Homunculus_backends.Taurus.cus_used a.Evaluator.verdict)
        p.Compiler.weight)
    points;
  Printf.printf "\n%d non-dominated points\n" (List.length points);
  Printf.printf
    "read: the top row is \"accuracy at any cost\" (the Table 2 winner);\n\
     rows below it trade a little F1 for a lighter, cooler pipeline (the\n\
     Table 5 power story).\n"
