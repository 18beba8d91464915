(* Reproduction harness: one entry per table and figure of the paper's
   evaluation (section 5), plus ablations and the serving and training
   checks. Every BENCH_*.json an experiment writes holds deterministic results
   only; speed is measured by perfbench.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one experiment
     HOMUNCULUS_BENCH_FAST=1 dune exec bench/main.exe   # scaled-down run *)

let experiments =
  [
    ("table2", Table2.run);
    ("table3", Table3.run);
    ("table4", Table4.run);
    ("table5", Table5.run);
    ("fig4", Fig4.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("reaction", Reaction_bench.run);
    ("serve", Serve_bench.run);
    ("loadgen", Loadgen_bench.run);
    ("ablation", Ablation.run);
    ("train", Train_bench.run);
    ("compose", Compose_bench.run);
  ]

let () =
  let t0 = Unix.gettimeofday () in
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    selected;
  Printf.printf "\ntotal wall-clock: %.1f s%s\n"
    (Unix.gettimeofday () -. t0)
    (if Bench_config.fast then " (HOMUNCULUS_BENCH_FAST)" else "")
