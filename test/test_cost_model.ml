(* The learned cost-model pre-filter: its contract properties (margin = inf
   is bit-identical to the exact path at any worker count; predicted entries
   never out-rank exactly-evaluated feasible ones), the Costmodel_eval
   differential oracle on a separable synthetic problem, and the refit
   cadence of the surrogate pair. *)
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng
module Par = Homunculus_par.Par
module Costmodel_eval = Homunculus_check.Costmodel_eval

(* A cleanly separable synthetic black box: the upper half of the x axis is
   infeasible, and the objective rises away from the boundary, so the winner
   lives far from the region the filter learns to skip. *)
let space =
  Bo.Design_space.create
    [ Bo.Param.real "x" ~lo:0. ~hi:1.; Bo.Param.real "y" ~lo:0. ~hi:1. ]

let eval config : Bo.Optimizer.evaluation =
  let x = Bo.Config.get_float config "x" in
  let y = Bo.Config.get_float config "y" in
  let feasible = x < 0.5 in
  {
    objective = (if feasible then y *. (1. -. x) else 0.);
    feasible;
    pruned = false;
    metadata = [];
  }

let features config = Bo.Design_space.encode space config

let settings ?(batch_size = 1) ?(n_iter = 30) () =
  {
    Bo.Optimizer.default_settings with
    Bo.Optimizer.n_init = 10;
    n_iter;
    pool_size = 40;
    surrogate_trees = 10;
    batch_size;
  }

let entries_equal (a : Bo.History.entry) (b : Bo.History.entry) =
  Bo.Config.equal a.Bo.History.config b.Bo.History.config
  && Int64.bits_of_float a.Bo.History.objective
     = Int64.bits_of_float b.Bo.History.objective
  && a.Bo.History.feasible = b.Bo.History.feasible
  && a.Bo.History.pruned = b.Bo.History.pruned
  && a.Bo.History.metadata = b.Bo.History.metadata

let histories_equal a b =
  Bo.History.length a = Bo.History.length b
  && List.for_all2 entries_equal (Bo.History.entries a) (Bo.History.entries b)

let filtered_history ~seed ~settings ~cm_settings ?pool () =
  let cm = Bo.Cost_model.create ~settings:cm_settings ~seed ~features () in
  let on_commit (_ : int) (e : Bo.History.entry) =
    if not (Bo.Cost_model.is_predicted e.Bo.History.metadata) then
      Bo.Cost_model.observe cm ~config:e.Bo.History.config
        ~objective:e.Bo.History.objective ~feasible:e.Bo.History.feasible
        ~pruned:e.Bo.History.pruned
  in
  let history =
    Bo.Optimizer.maximize (Rng.create seed) ~settings
      ?exec:(Option.map (fun p -> Bo.Optimizer.Pool p) pool)
      ~observer:{ Bo.Optimizer.no_observer with on_commit }
      ~prefilter:(Bo.Cost_model.prefilter cm) space ~f:(fun ~index:_ c -> eval c)
  in
  (history, cm)

let seed_gen = QCheck.make QCheck.Gen.(int_bound 1_000_000)

(* Property (a): with margin = infinity the filter never skips, so the
   filtered search — observations, refits, counters and all — commits a
   bit-identical history and winner, whatever the batch size. *)
let prop_infinite_margin_identity =
  QCheck.Test.make
    ~name:"margin = inf filter is bit-identical to the exact path" ~count:25
    seed_gen (fun seed ->
      let batch_size = 1 + (seed mod 3) in
      let settings = settings ~batch_size () in
      let exact =
        Bo.Optimizer.maximize (Rng.create seed) ~settings space
          ~f:(fun ~index:_ c -> eval c)
      in
      let filtered, cm =
        filtered_history ~seed ~settings
          ~cm_settings:
            {
              Bo.Cost_model.default_settings with
              Bo.Cost_model.margin = infinity;
              min_observations = 8;
            }
          ()
      in
      (Bo.Cost_model.stats cm).Bo.Cost_model.skipped = 0
      && histories_equal exact filtered)

(* Pre-filter decisions are made sequentially in proposal order, so the
   worker count cannot change them: the same seeded filtered search commits
   the same history on 1 worker and on 4. *)
let prop_filter_worker_determinism =
  let pool1 = Par.create ~jobs:1 () in
  let pool4 = Par.create ~jobs:4 () in
  QCheck.Test.make ~name:"filtered search is deterministic at any worker count"
    ~count:10 seed_gen (fun seed ->
      let settings = settings ~batch_size:4 () in
      let cm_settings =
        { Bo.Cost_model.default_settings with Bo.Cost_model.min_observations = 8 }
      in
      let h1, _ = filtered_history ~seed ~settings ~cm_settings ~pool:pool1 () in
      let h4, _ = filtered_history ~seed ~settings ~cm_settings ~pool:pool4 () in
      histories_equal h1 h4)

(* Property (b): predicted entries are committed infeasible, and the history
   order ranks every feasible entry above every infeasible one — so a
   predicted skip can never out-rank a complete feasible evaluation. *)
let prop_predicted_never_outranks_feasible =
  QCheck.Test.make
    ~name:"predicted entries never out-rank a complete feasible entry"
    ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let history = Bo.History.create () in
      let n = 3 + Rng.int rng 20 in
      let any_feasible = ref false in
      for _ = 1 to n do
        let config = Bo.Design_space.sample rng space in
        let eval =
          if Rng.bool rng then begin
            (* A predicted skip with an arbitrarily flattering objective. *)
            Bo.Cost_model.predicted_evaluation
              ~p_feasible:(Rng.float rng 0.35)
              ~predicted_objective:(Rng.float rng 10.)
          end
          else begin
            any_feasible := true;
            {
              Bo.Optimizer.objective = Rng.float rng 1.;
              feasible = true;
              pruned = false;
              metadata = [];
            }
          end
        in
        Bo.History.add history ~config ~objective:eval.Bo.Optimizer.objective
          ~feasible:eval.Bo.Optimizer.feasible ~pruned:eval.Bo.Optimizer.pruned
          ~metadata:eval.Bo.Optimizer.metadata ()
      done;
      match Bo.History.best_entry history with
      | None -> not !any_feasible
      | Some e ->
          (not !any_feasible)
          || not (Bo.Cost_model.is_predicted e.Bo.History.metadata))

(* Differential oracle on the separable problem: the filter may mispredict
   near the boundary, but it must never veto a feasible candidate that
   would have won, and the delivered winner must match the exact search's. *)
let prop_no_feasible_winner_vetoes =
  QCheck.Test.make ~name:"Costmodel_eval reports 0 feasible-winner vetoes"
    ~count:15 seed_gen (fun seed ->
      let report =
        Costmodel_eval.run ~seed ~settings:(settings ~n_iter:40 ())
          ~cost_settings:
            {
              Bo.Cost_model.default_settings with
              Bo.Cost_model.min_observations = 10;
            }
          ~space ~features ~eval ()
      in
      report.Costmodel_eval.feasible_winner_vetoes = 0
      && report.Costmodel_eval.winner_matched)

(* Regression: a new incumbent moved [best_observed] at once, but the
   classifier refit only after [refit_every] fresh exact observations. The
   stale classifier then skipped every proposal near the new incumbent, and
   since skips add no observations it never refit — 21 to 37 skips per run
   at these generator seeds, every one of them feasible and 9 to 13 of them
   feasible-winner vetoes. *)
let test_new_incumbent_refits () =
  List.iter
    (fun seed ->
      let report =
        Costmodel_eval.run ~seed ~settings:(settings ~n_iter:40 ())
          ~cost_settings:
            {
              Bo.Cost_model.default_settings with
              Bo.Cost_model.min_observations = 10;
            }
          ~space ~features ~eval ()
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: feasible-winner vetoes" seed)
        0 report.Costmodel_eval.feasible_winner_vetoes;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: no run of mispredicted skips" seed)
        true
        (report.Costmodel_eval.mispredicted_feasible <= 1))
    [ 102; 826; 1004 ]

(* Unit behavior *)

let observe_grid cm n =
  (* A deterministic labeled sweep across the boundary. *)
  for i = 0 to n - 1 do
    let x = float_of_int i /. float_of_int (n - 1) in
    let config = Bo.Config.make [ ("x", Bo.Param.Real_value x); ("y", Bo.Param.Real_value 0.5) ] in
    let e = eval config in
    Bo.Cost_model.observe cm ~config ~objective:e.Bo.Optimizer.objective
      ~feasible:e.Bo.Optimizer.feasible ~pruned:e.Bo.Optimizer.pruned
  done

let probe x =
  Bo.Config.make [ ("x", Bo.Param.Real_value x); ("y", Bo.Param.Real_value 0.5) ]

let test_warmup_requires_exact () =
  let cm = Bo.Cost_model.create ~seed:7 ~features () in
  (match Bo.Cost_model.classify cm (probe 0.95) with
  | Bo.Cost_model.Exact_required _ -> ()
  | Bo.Cost_model.Predicted_infeasible _ ->
      Alcotest.fail "skipped during warm-up");
  observe_grid cm 8 (* below min_observations = 12 *);
  match Bo.Cost_model.classify cm (probe 0.95) with
  | Bo.Cost_model.Exact_required _ -> ()
  | Bo.Cost_model.Predicted_infeasible _ ->
      Alcotest.fail "skipped before min_observations"

let test_learned_skip_and_feasible_passthrough () =
  let cm = Bo.Cost_model.create ~seed:7 ~features () in
  observe_grid cm 24;
  (match Bo.Cost_model.classify cm (probe 0.95) with
  | Bo.Cost_model.Predicted_infeasible { p_feasible; _ } ->
      Alcotest.(check bool) "confidently infeasible" true (p_feasible < 0.35)
  | Bo.Cost_model.Exact_required reason ->
      Alcotest.failf "deep-infeasible probe not skipped: %s" reason);
  (match Bo.Cost_model.classify cm (probe 0.05) with
  | Bo.Cost_model.Exact_required _ -> ()
  | Bo.Cost_model.Predicted_infeasible _ ->
      Alcotest.fail "clearly feasible probe skipped");
  let s = Bo.Cost_model.stats cm in
  Alcotest.(check int) "observations" 24 s.Bo.Cost_model.observations;
  Alcotest.(check int) "consults" 2 s.Bo.Cost_model.consults;
  Alcotest.(check int) "skips recorded" 1 s.Bo.Cost_model.skipped;
  Alcotest.(check int) "skipped corpus" 1
    (List.length (Bo.Cost_model.skipped_configs cm))

let test_winner_guard_blocks_skips () =
  (* winner_sigma = inf makes [mean + sigma * std < best] unsatisfiable, and
     conviction = 0 keeps the guard armed at any probability — so nothing is
     ever skipped, however confident the classifier. *)
  let cm =
    Bo.Cost_model.create
      ~settings:
        {
          Bo.Cost_model.default_settings with
          Bo.Cost_model.winner_sigma = infinity;
          conviction = 0.;
        }
      ~seed:7 ~features ()
  in
  observe_grid cm 24;
  (match Bo.Cost_model.classify cm (probe 0.95) with
  | Bo.Cost_model.Exact_required _ -> ()
  | Bo.Cost_model.Predicted_infeasible _ ->
      Alcotest.fail "skip slipped past the winner guard");
  let s = Bo.Cost_model.stats cm in
  Alcotest.(check int) "nothing skipped" 0 s.Bo.Cost_model.skipped;
  Alcotest.(check bool) "guard fired" true (s.Bo.Cost_model.winner_guarded >= 1)

let test_predicted_evaluation_shape () =
  let e = Bo.Cost_model.predicted_evaluation ~p_feasible:0.1 ~predicted_objective:0.4 in
  Alcotest.(check bool) "infeasible" false e.Bo.Optimizer.feasible;
  Alcotest.(check bool) "not pruned" false e.Bo.Optimizer.pruned;
  Alcotest.(check bool) "tagged" true
    (Bo.Cost_model.is_predicted e.Bo.Optimizer.metadata);
  Alcotest.(check (float 0.)) "probability carried" 0.1
    (List.assoc Bo.Cost_model.prob_key e.Bo.Optimizer.metadata);
  Alcotest.(check bool) "untagged metadata is not predicted" false
    (Bo.Cost_model.is_predicted [ ("latency_ns", 42.) ])

let test_refit_cadence () =
  (* With refit_every = 4 past the warm-up threshold, the surrogate pair is
     fitted a fraction of the times the classic loop fits it — and the run
     stays deterministic for the same settings. *)
  let run ~refit_every ~refit_threshold =
    let refits = ref 0 in
    let settings =
      { (settings ~n_iter:16 ()) with Bo.Optimizer.refit_every; refit_threshold }
    in
    let history =
      Bo.Optimizer.maximize (Rng.create 11) ~settings
        ~observer:{ Bo.Optimizer.no_observer with on_refit = (fun _ -> incr refits) }
        space ~f:(fun ~index:_ c -> eval c)
    in
    (history, !refits)
  in
  let h_every, n_every = run ~refit_every:1 ~refit_threshold:0 in
  let h_cadence, n_cadence = run ~refit_every:4 ~refit_threshold:10 in
  let h_cadence', n_cadence' = run ~refit_every:4 ~refit_threshold:10 in
  Alcotest.(check int) "classic loop refits every round" 16 n_every;
  Alcotest.(check bool) "cadence amortizes refits" true (n_cadence <= 5);
  Alcotest.(check int) "cadence is deterministic" n_cadence n_cadence';
  Alcotest.(check bool) "same-settings runs are bit-identical" true
    (histories_equal h_cadence h_cadence');
  Alcotest.(check int) "same budget spent" (Bo.History.length h_every)
    (Bo.History.length h_cadence)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_infinite_margin_identity;
      prop_filter_worker_determinism;
      prop_predicted_never_outranks_feasible;
      prop_no_feasible_winner_vetoes;
    ]
  @ [
      Alcotest.test_case "warm-up requires exact evaluation" `Quick
        test_warmup_requires_exact;
      Alcotest.test_case "learned skip + feasible passthrough" `Quick
        test_learned_skip_and_feasible_passthrough;
      Alcotest.test_case "winner guard blocks skips" `Quick
        test_winner_guard_blocks_skips;
      Alcotest.test_case "predicted evaluation shape" `Quick
        test_predicted_evaluation_shape;
      Alcotest.test_case "surrogate refit cadence" `Quick test_refit_cadence;
      Alcotest.test_case "new incumbent refits the filter" `Quick
        test_new_incumbent_refits;
    ]
