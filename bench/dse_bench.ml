(* The learned cost-model pre-filter: what it skips and whether the winner
   survives. Speed is perfbench's to measure; this bench records only
   deterministic counts, so two runs write the same BENCH_dse.json bytes.

   Section 1 (cost model): the real compiler inner loop — train, lower,
   estimate — on a resource-constrained Taurus grid, with the filter off vs
   on at jobs=1 and a fixed seed. It records exact evaluations, estimator
   calls, skips and refits per arm, and requires the winning artifact to be
   bit-for-bit identical.

   Section 2 (differential validation): Check.Costmodel_eval re-evaluates
   every skipped candidate exactly and counts feasible-winner vetoes — the
   contract requires zero, and the filtered winner must match the exact
   one.

   The process exits 1 with a FAIL line on stderr when either contract
   breaks. *)

module Bo = Homunculus_bo
module Json = Homunculus_util.Json
module Rng = Homunculus_util.Rng
module Compiler = Homunculus_core.Compiler
module Evaluator = Homunculus_core.Evaluator
module Platform = Homunculus_alchemy.Platform
module Model_spec = Homunculus_alchemy.Model_spec
module Nslkdd = Homunculus_netdata.Nslkdd
module Costmodel_eval = Homunculus_check.Costmodel_eval

let space () =
  Bo.Design_space.create
    [
      Bo.Param.int "neurons" ~lo:8 ~hi:128;
      Bo.Param.int "layers" ~lo:1 ~hi:4;
      Bo.Param.real "learning_rate" ~log_scale:true ~lo:1e-4 ~hi:1e-1;
      Bo.Param.real "weight_decay" ~lo:0. ~hi:0.1;
      Bo.Param.ordinal "batch" [| 16.; 32.; 64.; 128. |];
      Bo.Param.categorical "activation" [| "relu"; "tanh" |];
    ]

(* A cheap analytic black box with a feasibility boundary across the first
   two encoded dimensions. *)
let eval space config =
  let p = Bo.Design_space.encode space config in
  {
    Bo.Optimizer.objective =
      Array.fold_left (fun a v -> a -. ((v -. 0.6) *. (v -. 0.6))) 1.5 p;
    feasible = p.(0) +. p.(1) < 1.6;
    pruned = false;
    metadata = [];
  }

(* ---------------------------------------------------------------- *)
(* Section 1: cost-model pre-filter A/B on the real compiler path.  *)

(* A Taurus grid small enough that a large share of the DNN design space
   blows the compute-unit budget: that is exactly the regime the filter is
   for. *)
let cm_platform () =
  Platform.with_resources (Platform.taurus ()) ~rows:10 ~cols:10

let cm_budget = if Bench_config.fast then 24 else 100

let cm_spec () =
  let n_train, n_test = if Bench_config.fast then (300, 150) else (700, 300) in
  Model_spec.make ~name:"AD-cm" ~metric:Model_spec.F1
    ~algorithms:[ Model_spec.Dnn ]
    ~loader:(fun () ->
      let rng = Rng.create Bench_config.seed in
      let train, test = Nslkdd.generate_split rng ~n_train ~n_test () in
      Model_spec.data ~train ~test)
    ()

(* Exploration-heavy schedule: on an 88%-infeasible grid, the random phase
   is where an exact-only search spends most of its budget on doomed
   candidates — exactly what the filter exists to cut. The guided phase's
   own feasibility-weighted acquisition already avoids the region, so a
   warm-up-light schedule would leave the filter little to do. *)
let cm_options ~cost_model =
  let n_init = cm_budget * 7 / 10 in
  {
    Compiler.default_options with
    Compiler.seed = Bench_config.seed;
    bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init;
        n_iter = cm_budget - n_init;
        pool_size = (if Bench_config.fast then 64 else 150);
        batch_size = 1;
      };
    emit_code = false;
    cost_model;
  }

(* One arm: the search result and the evaluator's exact-path counters. *)
let run_cm_arm ~platform ~spec ~cost_model =
  Evaluator.Timing.reset ();
  let result = Compiler.search_model ~options:(cm_options ~cost_model) platform spec in
  (Evaluator.Timing.snapshot (), result)

let artifact_fingerprint (a : Evaluator.artifact) =
  ( a.Evaluator.algorithm,
    Bo.Config.to_string a.Evaluator.config,
    Int64.bits_of_float a.Evaluator.objective )

let json_of_counts (t : Evaluator.Timing.snapshot) =
  Json.Object
    [
      ("evaluations", Json.Number (float_of_int t.Evaluator.Timing.evaluations));
      ("estimates", Json.Number (float_of_int t.Evaluator.Timing.estimates));
    ]

let run_cost_model_section () =
  Bench_config.section "DSE cost model: learned pre-filter off vs on (jobs 1)";
  let platform = cm_platform () in
  let spec = cm_spec () in
  let off, off_result = run_cm_arm ~platform ~spec ~cost_model:None in
  (* The DNN feature vector carries the analytic skeleton-feasibility bit,
     so a near-zero predicted p(feasible) is close to certain here: waive
     the 3-sigma winner guard below p = 0.1 instead of the default 0.02
     (which demands a unanimous 30-tree vote). *)
  let on, on_result =
    run_cm_arm ~platform ~spec
      ~cost_model:
        (Some
           {
             Bo.Cost_model.default_settings with
             Bo.Cost_model.min_observations = 6;
             conviction = 0.15;
             margin = 0.12;
           })
  in
  let winner_identical =
    artifact_fingerprint off_result.Compiler.artifact
    = artifact_fingerprint on_result.Compiler.artifact
  in
  let stats =
    Option.value on_result.Compiler.cost_stats ~default:Bo.Cost_model.zero_stats
  in
  Printf.printf "  off: %d exact evals, %d estimator calls\n"
    off.Evaluator.Timing.evaluations off.Evaluator.Timing.estimates;
  Printf.printf "  on:  %d exact evals, %d estimator calls, %s\n"
    on.Evaluator.Timing.evaluations on.Evaluator.Timing.estimates
    (Bo.Cost_model.stats_summary stats);
  Printf.printf "  winning artifact %s\n"
    (if winner_identical then "bit-identical" else "DIVERGED");
  let json =
    Json.Object
      [
        ("budget", Json.Number (float_of_int cm_budget));
        ("jobs", Json.Number 1.);
        ("off", json_of_counts off);
        ("on", json_of_counts on);
        ("skipped", Json.Number (float_of_int stats.Bo.Cost_model.skipped));
        ("refits", Json.Number (float_of_int stats.Bo.Cost_model.refits));
        ("winner_identical", Json.Bool winner_identical);
      ]
  in
  (json, winner_identical)

(* ---------------------------------------------------------------- *)
(* Section 2: differential validation of the filter's skips.        *)

let run_costmodel_eval_section () =
  Bench_config.section "DSE cost model: differential validation of skips";
  let sp = space () in
  let features = Bo.Design_space.encode sp in
  let budget = if Bench_config.fast then 40 else 80 in
  let n_init = Stdlib.max 3 (budget / 4) in
  let report =
    Costmodel_eval.run ~seed:Bench_config.seed
      ~settings:
        {
          Bo.Optimizer.default_settings with
          Bo.Optimizer.n_init;
          n_iter = budget - n_init;
          pool_size = 64;
        }
      ~cost_settings:
        { Bo.Cost_model.default_settings with Bo.Cost_model.min_observations = 10 }
      ~space:sp ~features ~eval:(eval sp) ()
  in
  Printf.printf "  %s\n" (Costmodel_eval.summary report);
  let json =
    Json.Object
      [
        ("evaluated", Json.Number (float_of_int report.Costmodel_eval.evaluated));
        ("skipped", Json.Number (float_of_int report.Costmodel_eval.skipped));
        ( "mispredicted_feasible",
          Json.Number (float_of_int report.Costmodel_eval.mispredicted_feasible) );
        ( "feasible_winner_vetoes",
          Json.Number (float_of_int report.Costmodel_eval.feasible_winner_vetoes) );
        ("winner_matched", Json.Bool report.Costmodel_eval.winner_matched);
      ]
  in
  (json, report)

let run () =
  let cost_model_json, winner_identical = run_cost_model_section () in
  let eval_json, report = run_costmodel_eval_section () in
  let json =
    Json.Object
      [
        ("bench", Json.String "dse");
        ("fast", Json.Bool Bench_config.fast);
        ("cost_model", cost_model_json);
        ("costmodel_eval", eval_json);
      ]
  in
  Out_channel.with_open_text "BENCH_dse.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string json);
      Out_channel.output_char oc '\n');
  Bench_config.note "  wrote BENCH_dse.json\n";
  if not winner_identical then begin
    Printf.eprintf
      "FAIL: the cost-model pre-filter changed the winning artifact\n";
    exit 1
  end;
  if report.Costmodel_eval.feasible_winner_vetoes > 0 then begin
    Printf.eprintf
      "FAIL: %d skipped candidates were feasible and beat the filtered winner\n"
      report.Costmodel_eval.feasible_winner_vetoes;
    exit 1
  end;
  if not report.Costmodel_eval.winner_matched then begin
    Printf.eprintf
      "FAIL: the filtered search's winner differs from the exact search's\n";
    exit 1
  end
