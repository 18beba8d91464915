(* The autopilot control plane: generation-journal bookkeeping, the
   end-to-end regime-shift loop (forced drift -> warm-started re-search ->
   hot-swap through the updater margin), graceful degradation under a
   forced research failure (the incumbent's windows are bit-identical to a
   monitoring-only run), the warm-start = replay-then-continue identity as
   a qcheck property, and kill-mid-re-search resume (stdout-diff-clean
   events, bit-identical generation journal). *)

open Homunculus_netdata
open Homunculus_serve
module Rng = Homunculus_util.Rng
module Bo = Homunculus_bo
module Model_spec = Homunculus_alchemy.Model_spec
module Platform = Homunculus_alchemy.Platform
module Compiler = Homunculus_core.Compiler
module Evaluator = Homunculus_core.Evaluator
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor
module Faultplan = Homunculus_resilience.Faultplan
module Autopilot = Homunculus_autopilot.Autopilot

let temp_dir () =
  let path = Filename.temp_file "autopilot" ".d" in
  Sys.remove path;
  (* Autopilot.create mkdir_p's it. *)
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* {2 Journal-directory bookkeeping} *)

let test_generation_files () =
  let dir = temp_dir () in
  Alcotest.(check (list (triple int string bool)))
    "missing dir is empty" []
    (Autopilot.generation_files ~dir);
  Unix.mkdir dir 0o755;
  let touch p = close_out (open_out p) in
  let p0 = Autopilot.journal_path ~dir ~generation:0 in
  let p2 = Autopilot.journal_path ~dir ~generation:2 in
  Alcotest.(check string) "journal path" "research-000.jsonl"
    (Filename.basename p0);
  Alcotest.(check string) "done path" (p0 ^ ".done") (Autopilot.done_path p0);
  touch p2;
  touch (Autopilot.done_path p2);
  touch p0;
  touch (Filename.concat dir "not-a-journal.txt");
  Alcotest.(check (list (triple int string bool)))
    "ascending, completion flags, strangers ignored"
    [ (0, p0, false); (2, p2, true) ]
    (Autopilot.generation_files ~dir);
  rm_rf dir

let test_create_validates () =
  let dir = temp_dir () in
  let cfg = Autopilot.default_config ~platform:(Platform.taurus ()) ~journal_dir:dir in
  let raises cfg =
    match Autopilot.create cfg with
    | (_ : Autopilot.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad holdout" true
    (raises { cfg with Autopilot.holdout_frac = 1. });
  Alcotest.(check bool) "bad fresh" true
    (raises { cfg with Autopilot.fresh_evals = -1 });
  Alcotest.(check bool) "empty shortlist" true
    (raises { cfg with Autopilot.algorithms = [] });
  Alcotest.(check bool) "negative backoff" true
    (raises { cfg with Autopilot.backoff_windows = -1 });
  let t = Autopilot.create cfg in
  Alcotest.(check bool) "journal dir created" true
    (Sys.file_exists dir && Sys.is_directory dir);
  Alcotest.(check int) "no failures yet" 0 (Autopilot.consecutive_failures t);
  rm_rf dir

(* {2 The regime-shift scenario}

   The incumbent is a tree bootstrapped on ORIGINAL traffic; the stream
   serves SHIFTED botnet flows, so a challenger retrained on the updater's
   reservoir (which only ever sees shifted traffic) has a genuine edge.
   Drift alarms are forced at fixed windows — deterministic and fast, the
   organic detectors have their own tests. *)

let scenario_mix n = { Flowsim.n_flows = n; botnet_frac = 0.5; max_packets = 160 }

let scenario () =
  let rng = Rng.create 4040 in
  let train = Flowsim.generate rng ~mix:(scenario_mix 60) () in
  let model =
    Updater.bootstrap (Rng.split rng) ~algorithm:`Tree ~bins:Botnet.Fused
      ~name:"ap" train
  in
  let shifted =
    Stream.shift_botnet (Flowsim.generate rng ~mix:(scenario_mix 80) ())
  in
  let events = Stream.events (Rng.create 4141) shifted in
  (model, events)

let pilot_config ~dir ?(faults = Faultplan.create []) () =
  {
    (Autopilot.default_config ~platform:(Platform.taurus ()) ~journal_dir:dir) with
    Autopilot.seed = 11;
    fresh_evals = 2;
    min_examples = 60;
    faults;
  }

let run_serving ?pilot_cfg ~model ~events ~forced () =
  let pilot = Option.map Autopilot.create pilot_cfg in
  let updates =
    match pilot with
    | None -> Session.Frozen
    | Some p -> Session.Research (Rng.create 7, Autopilot.hook p)
  in
  let config =
    {
      Session.default_config with
      Session.monitor =
        {
          Monitor.default_config with
          Monitor.window_events = 150;
          label_delay_s = 1.;
          (* Only the forced windows alarm: the organic detectors would keep
             re-firing on the degraded incumbent and make the alarm count
             depend on the searched challengers. They have their own tests. *)
          acc_drop = 2.;
          ph_lambda = 1e12;
        };
      forced_drifts = forced;
      updates;
    }
  in
  let summary = Engine.run (Session.create ~config model) events in
  (summary, pilot)

let installed_count events =
  List.length
    (List.filter
       (fun (e : Autopilot.event) ->
         match e.Autopilot.outcome with
         | Autopilot.Installed _ -> true
         | _ -> false)
       events)

let test_end_to_end_regime_shift () =
  let model, events = scenario () in
  let dir = temp_dir () in
  let summary, pilot =
    run_serving ~pilot_cfg:(pilot_config ~dir ()) ~model ~events
      ~forced:[ 1; 3 ] ()
  in
  let pilot = Option.get pilot in
  let evs = Autopilot.events pilot in
  Alcotest.(check int) "both alarms handled" 2 (List.length evs);
  let e0 = List.nth evs 0 and e1 = List.nth evs 1 in
  Alcotest.(check int) "first alarm at window 1" 1 e0.Autopilot.window;
  Alcotest.(check string) "forced alarms are injected" "injected"
    e0.Autopilot.reason;
  Alcotest.(check int) "generation 0 first" 0 e0.Autopilot.generation;
  Alcotest.(check int) "generation 1 second" 1 e1.Autopilot.generation;
  (* Generation 0 is cold; generation 1 replays exactly the n_init + fresh
     proposals generation 0 journaled — warm-up skipped, the whole budget
     on fresh candidates. *)
  Alcotest.(check int) "gen 0 cold" 0 e0.Autopilot.replayed;
  Alcotest.(check int) "gen 0 journals n_init + fresh" 5 e0.Autopilot.fresh;
  Alcotest.(check int) "gen 1 warm-started past warm-up" 5
    e1.Autopilot.replayed;
  Alcotest.(check int) "gen 1 journals only fresh" 2 e1.Autopilot.fresh;
  (match Autopilot.generation_files ~dir with
  | [ (0, _, true); (1, _, true) ] -> ()
  | gens -> Alcotest.failf "expected two completed generations, got %d"
              (List.length gens));
  (* The winner flowed through the updater margin into a hot swap. *)
  let installs = installed_count evs in
  Alcotest.(check bool) "at least one install" true (installs >= 1);
  Alcotest.(check int) "every install is a hot swap" installs
    (List.length summary.Engine.swaps);
  List.iter
    (fun (s : Engine.swap) ->
      Alcotest.(check bool) "validated margin" true
        (s.Engine.challenger_f1 >= s.Engine.incumbent_f1 +. 0.02);
      Alcotest.(check int) "no drops during the swap" 0
        s.Engine.dropped_during_swap)
    summary.Engine.swaps;
  (* Same seeds, fresh journal dir: the whole loop is reproducible. *)
  let dir2 = temp_dir () in
  let summary2, pilot2 =
    run_serving ~pilot_cfg:(pilot_config ~dir:dir2 ()) ~model ~events
      ~forced:[ 1; 3 ] ()
  in
  Alcotest.(check (list string)) "deterministic events"
    (List.map Autopilot.event_to_string evs)
    (List.map Autopilot.event_to_string (Autopilot.events (Option.get pilot2)));
  Alcotest.(check int) "deterministic swaps"
    (List.length summary.Engine.swaps)
    (List.length summary2.Engine.swaps);
  rm_rf dir;
  rm_rf dir2

(* Graceful degradation: research-timeout@0 keeps generation 0's budget
   pre-expired (and, because an unfinished generation is retried, keeps
   holding it back) — every alarm degrades to Keep, the incumbent serves
   throughout, and the windowed metrics are bit-identical to a run with no
   autopilot at all. The never-worse guarantee, observed end to end. *)
let test_forced_failure_never_worse () =
  let model, events = scenario () in
  let dir = temp_dir () in
  let summary, pilot =
    run_serving
      ~pilot_cfg:
        (pilot_config ~dir ~faults:(Faultplan.of_string "research-timeout@0") ())
      ~model ~events ~forced:[ 1; 2; 3 ] ()
  in
  let pilot = Option.get pilot in
  let baseline, _ = run_serving ~model ~events ~forced:[ 1; 2; 3 ] () in
  Alcotest.(check int) "never swaps" 0 (List.length summary.Engine.swaps);
  Alcotest.(check bool) "incumbent still installed" true
    (summary.Engine.final_model == model);
  (match List.map (fun (e : Autopilot.event) -> e.Autopilot.outcome)
           (Autopilot.events pilot)
   with
  | [ Autopilot.Budget_exhausted; Autopilot.Backing_off _;
      Autopilot.Budget_exhausted ] -> ()
  | os ->
      Alcotest.failf "expected budget, backoff, budget; got [%s]"
        (String.concat "; "
           (List.map Autopilot.outcome_to_string os)));
  Alcotest.(check int) "failures accumulate" 2
    (Autopilot.consecutive_failures pilot);
  (* The budget-killed generation never completes: no .done, resumed as
     generation 0 on every attempt. *)
  (match Autopilot.generation_files ~dir with
  | [ (0, _, false) ] -> ()
  | gens -> Alcotest.failf "expected one incomplete generation, got %d"
              (List.length gens));
  (* Accuracy is never below the no-autopilot baseline: with the incumbent
     untouched, every window metric is bit-identical. *)
  let f1s (s : Engine.summary) =
    List.map (fun w -> Int64.bits_of_float w.Monitor.f1) s.Engine.windows
  in
  Alcotest.(check (list int64)) "windowed F1 identical to baseline"
    (f1s baseline) (f1s summary);
  Alcotest.(check int) "served identical" baseline.Engine.served
    summary.Engine.served;
  rm_rf dir

(* {2 Warm start = replay-then-continue, as a property}

   For any seed: a journaled prior search of [n_init + A] evaluations,
   replayed under [Optimizer.continuation ~replayed:(n_init + A) ~fresh:B],
   produces the bit-for-bit history and winner of one uninterrupted search
   of [n_init + A + B] evaluations. This is the identity the autopilot's
   generation arithmetic rests on. *)
let prop_warm_equals_cold =
  let seed_gen =
    QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)
  in
  QCheck.Test.make ~name:"warm-started search == replay-then-continue" ~count:5
    seed_gen (fun seed ->
      let spec =
        Test_core.blob_spec ~name:"apwarm" ~algorithms:[ Model_spec.Tree ] ()
      in
      let platform = Platform.taurus () in
      let prior = 2 and fresh = 2 in
      let base =
        {
          Test_core.tiny_options.Compiler.bo_settings with
          Bo.Optimizer.n_init = 3;
          n_iter = prior;
          batch_size = 2;
        }
      in
      let options supervisor settings =
        {
          Test_core.tiny_options with
          Compiler.seed;
          bo_settings = settings;
          supervisor;
        }
      in
      let path = Filename.temp_file "ap_warm" ".jsonl" in
      let journal = Journal.open_ path in
      let sup = Supervisor.create ~journal () in
      ignore
        (Compiler.search_model ~options:(options (Some sup) base) platform spec);
      Journal.close journal;
      let warm =
        let sup = Supervisor.create ~replay:(Journal.load path) () in
        let settings =
          Bo.Optimizer.continuation base
            ~replayed:(base.Bo.Optimizer.n_init + prior)
            ~fresh
        in
        Compiler.search_model
          ~options:(options (Some sup) settings)
          platform spec
      in
      let cold =
        let settings = { base with Bo.Optimizer.n_iter = prior + fresh } in
        Compiler.search_model ~options:(options None settings) platform spec
      in
      Sys.remove path;
      Test_resilience.histories_identical warm.Compiler.history
        cold.Compiler.history
      && Bo.Config.equal warm.Compiler.artifact.Evaluator.config
           cold.Compiler.artifact.Evaluator.config
      && Int64.bits_of_float warm.Compiler.artifact.Evaluator.objective
         = Int64.bits_of_float cold.Compiler.artifact.Evaluator.objective)

(* Kill mid-re-search, resume, and require the second incarnation to be
   indistinguishable on stdout: the crashed generation resumes in place,
   its journal completes to the exact bytes the uninterrupted run writes,
   and the rendered events (which deliberately omit the replay accounting)
   match a control run that never crashed. *)
let test_kill_mid_research_resume () =
  let model, events = scenario () in
  let killed_dir = temp_dir () and control_dir = temp_dir () in
  (* First incarnation: crash once generation 0's journal holds 2 fresh
     records. The exception escapes the serving loop — that is the crash
     the journals exist to survive. *)
  (match
     run_serving
       ~pilot_cfg:(pilot_config ~dir:killed_dir ~faults:(Faultplan.of_string "kill@2") ())
       ~model ~events ~forced:[ 1; 3 ] ()
   with
  | (_ : Engine.summary * Autopilot.t option) ->
      Alcotest.fail "serving loop survived its own simulated crash"
  | exception Faultplan.Killed n ->
      Alcotest.(check int) "killed at the threshold" 2 n);
  (match Autopilot.generation_files ~dir:killed_dir with
  | [ (0, path, false) ] ->
      let replay = Journal.load path in
      Alcotest.(check int) "partial journal flushed on the way down" 2
        (Journal.loaded replay)
  | gens -> Alcotest.failf "expected one partial generation, got %d"
              (List.length gens));
  (* Second incarnation (same journal dir) and an uninterrupted control
     (fresh dir): same events, same swaps, same journal bytes. *)
  let summary_r, pilot_r =
    run_serving ~pilot_cfg:(pilot_config ~dir:killed_dir ()) ~model ~events
      ~forced:[ 1; 3 ] ()
  in
  let summary_c, pilot_c =
    run_serving ~pilot_cfg:(pilot_config ~dir:control_dir ()) ~model ~events
      ~forced:[ 1; 3 ] ()
  in
  let strings p = List.map Autopilot.event_to_string (Autopilot.events (Option.get p)) in
  Alcotest.(check (list string)) "rendered events diff-clean across the crash"
    (strings pilot_c) (strings pilot_r);
  Alcotest.(check (list (float 0.))) "same swap instants"
    (List.map (fun s -> s.Engine.swap_ts) summary_c.Engine.swaps)
    (List.map (fun s -> s.Engine.swap_ts) summary_r.Engine.swaps);
  List.iter2
    (fun (g_r, p_r, done_r) (g_c, p_c, done_c) ->
      Alcotest.(check int) "same generations" g_c g_r;
      Alcotest.(check bool) "same completion" done_c done_r;
      Alcotest.(check string)
        (Printf.sprintf "generation %d journal bit-identical" g_r)
        (read_file p_c) (read_file p_r))
    (Autopilot.generation_files ~dir:killed_dir)
    (Autopilot.generation_files ~dir:control_dir);
  rm_rf killed_dir;
  rm_rf control_dir

let suite =
  [
    Alcotest.test_case "generation files" `Quick test_generation_files;
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "end-to-end regime shift" `Quick
      test_end_to_end_regime_shift;
    Alcotest.test_case "forced failure never worse" `Quick
      test_forced_failure_never_worse;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    Alcotest.test_case "kill mid-re-search resume" `Quick
      test_kill_mid_research_resume;
  ]
