(* Figure 4: regret plot — F1 score of the anomaly-detection DNN per
   Bayesian-optimization iteration on the MapReduce grid. The paper's shape:
   poor initial results, quick stabilization, then a trade-off between
   exploiting the incumbent and exploring better variants. *)

open Homunculus_core
module Bo = Homunculus_bo

let run () =
  Bench_config.section "Figure 4: BO regret for the AD DNN on Taurus";
  let a = Table2.compute () in
  let history = List.assoc "Hom-AD" a.Table2.histories in
  print_string (Report.render_regret ~width:64 ~height:14 history);
  Printf.printf "\niteration, objective, best_so_far, feasible\n";
  let best = ref neg_infinity in
  List.iter
    (fun e ->
      if e.Bo.History.feasible && e.Bo.History.objective > !best then
        best := e.Bo.History.objective;
      (* An infeasible entry's objective is a placeholder (a DNN whose shape
         cannot fit is never trained), not a measured F1. *)
      Printf.printf "%3d, %7s, %7.4f, %b\n" e.Bo.History.iteration
        (if e.Bo.History.feasible then
           Printf.sprintf "%.4f" e.Bo.History.objective
         else "-")
        (if !best = neg_infinity then Float.nan else !best)
        e.Bo.History.feasible)
    (Bo.History.entries history);
  (* Shape check: the curve improves after the random warm-up phase. *)
  let curve = Bo.History.best_so_far history in
  let n_init = Bench_config.search_options.Homunculus_core.Compiler.bo_settings.Bo.Optimizer.n_init in
  let warm = curve.(Stdlib.min (n_init - 1) (Array.length curve - 1)) in
  let final = curve.(Array.length curve - 1) in
  Printf.printf
    "\nbest after warm-up: %.4f; final: %.4f; BO improved on random init: %b\n"
    warm final (final >= warm)
