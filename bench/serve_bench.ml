(* Online serving under concept drift: the deployment-side experiment the
   paper's offline loop stops short of. A BD model trained on today's C&C
   traffic serves a live packet stream; mid-trace the botmaster re-tools
   (packet sizes up, command gaps down), windowed F1 collapses, the drift
   detector fires, and the updater retrains + hot-swaps weights mid-stream
   without dropping a queued packet — the Taurus runtime-update story. *)

open Homunculus_netdata
open Homunculus_serve
module Rng = Homunculus_util.Rng
module Json = Homunculus_util.Json
module Platform = Homunculus_alchemy.Platform
module Model_spec = Homunculus_alchemy.Model_spec
module Dataset = Homunculus_ml.Dataset
module Bo = Homunculus_bo
module Compiler = Homunculus_core.Compiler
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor
module Autopilot = Homunculus_autopilot.Autopilot

let mix n = { Flowsim.n_flows = n; botnet_frac = 0.5; max_packets = 200 }

let run_once ?(monitor = Monitor.default_config) ~model ~events updates =
  let config = { Session.default_config with Session.monitor; updates } in
  Engine.run (Session.create ~config model) events

(* {2 Autopilot regime shift: drift -> warm-started re-search -> hot-swap} *)

let journal_dir = "BENCH_autopilot_journal"

let clean_journal_dir () =
  if Sys.file_exists journal_dir && Sys.is_directory journal_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat journal_dir f))
      (Sys.readdir journal_dir)

let run_autopilot ~model ~events ~updater_rng ~seed =
  let pilot =
    Autopilot.create
      {
        (Autopilot.default_config ~platform:(Platform.taurus ()) ~journal_dir)
        with
        Autopilot.seed;
      }
  in
  ( run_once
      ~monitor:{ Monitor.default_config with Monitor.cooldown_windows = 2 }
      ~model ~events
      (Session.Research (updater_rng, Autopilot.hook pilot)),
    pilot )

(* Recovery: the first post-swap window whose F1 is back within 0.05 of the
   pre-shift mean; time counted from the shift. *)
let time_to_recovery windows swaps ~pre_f1 =
  match swaps with
  | [] -> None
  | first_swap :: _ ->
      List.find_opt
        (fun w ->
          w.Monitor.t_start > first_swap.Engine.swap_ts
          && w.Monitor.f1 >= pre_f1 -. 0.05)
        windows
      |> Option.map (fun w -> w.Monitor.t_end -. Session.shift_s)

let accuracy_floor windows =
  List.fold_left
    (fun acc w ->
      if w.Monitor.t_end > Session.shift_s then Stdlib.min acc w.Monitor.f1 else acc)
    1. windows

(* The warm-start claim, measured in isolation on a fixed spec: a journaled
   search of [prior] guided evaluations, then (a) warm — replay the journal
   and continue with [fresh] more — against (b) cold — one search of
   [prior + fresh] from scratch. Same proposal sequence by construction
   (the replay-then-continue identity), so both must pick the same winner;
   the warm arm trains only [fresh] candidates, the cold arm
   [n_init + prior + fresh]. *)
let warm_vs_cold ~spec ~seed =
  let platform = Platform.taurus () in
  let prior = 4 and fresh = 4 in
  let base =
    { Bo.Optimizer.default_settings with Bo.Optimizer.n_init = 3; n_iter = prior }
  in
  let path = Filename.temp_file "bench_warmstart" ".jsonl" in
  let options supervisor settings =
    {
      Compiler.default_options with
      Compiler.seed;
      bo_settings = settings;
      emit_code = false;
      supervisor;
    }
  in
  (* prior search, journaled *)
  let journal = Journal.open_ path in
  let sup = Supervisor.create ~journal () in
  ignore (Compiler.search_model ~options:(options (Some sup) base) platform spec);
  Journal.close journal;
  (* warm: replay + continue *)
  let warm =
    let sup = Supervisor.create ~replay:(Journal.load path) () in
    let settings =
      Bo.Optimizer.continuation base ~replayed:(base.Bo.Optimizer.n_init + prior)
        ~fresh
    in
    Compiler.search_model ~options:(options (Some sup) settings) platform spec
  in
  (* cold: the same total budget, no replay *)
  let cold =
    let settings = { base with Bo.Optimizer.n_iter = prior + fresh } in
    Compiler.search_model ~options:(options None settings) platform spec
  in
  Sys.remove path;
  let config_string (r : Compiler.model_result) =
    Bo.Config.to_string r.Compiler.artifact.Homunculus_core.Evaluator.config
  in
  String.equal (config_string warm) (config_string cold)
  && Float.equal warm.Compiler.artifact.objective
       cold.Compiler.artifact.objective

let spec_of_flows ~seed ~name flows =
  let x = Array.map (fun f -> Botnet.flow_features Botnet.Fused f ()) flows in
  let y = Array.map (fun f -> Flow.label_to_int f.Flow.label) flows in
  let n = Array.length x in
  let rng = Rng.create seed in
  let perm = Rng.permutation rng n in
  let n_test = Stdlib.max 1 (n * 3 / 10) in
  let slice off k =
    ( Array.init k (fun i -> x.(perm.(off + i))),
      Array.init k (fun i -> y.(perm.(off + i))) )
  in
  let x_test, y_test = slice 0 n_test in
  let x_train, y_train = slice n_test (n - n_test) in
  let dataset x y = Dataset.create ~x ~y ~n_classes:2 () in
  Model_spec.make ~name ~algorithms:[ Model_spec.Tree ]
    ~loader:(fun () ->
      Model_spec.data
        ~train:(dataset x_train y_train)
        ~test:(dataset x_test y_test))
    ()

let run () =
  Bench_config.section "Online serving: drift detection and hot-swap recovery";
  let n_train, n_serve = if Bench_config.fast then (120, 100) else (200, 150) in
  let model, events =
    Session.drift_scenario ~name:"botnet_detection"
      ~seed:(Bench_config.seed + 17) ~n_train ~n_serve ()
  in
  Printf.printf "%d per-packet events; traffic shift lands at t = %.0f s\n"
    (Array.length events) Session.shift_s;
  let show name (s : Engine.summary) =
    let pre = Session.mean_f1 ~before:Session.shift_s s.Engine.windows in
    let post = Session.mean_f1 ~after:(Session.shift_s +. 100.) s.Engine.windows in
    Printf.printf
      "%-16s served %6d, dropped %3d, drift alarms %d, swaps %d\n\
    \                 windowed F1: %.3f before the shift, %.3f after\n"
      name s.Engine.served s.Engine.dropped
      (List.length s.Engine.drift_events)
      (List.length s.Engine.swaps)
      pre post;
    List.iter
      (fun (d : Monitor.drift) ->
        Printf.printf "                 drift @ %7.1f s (%s, %.3f)\n"
          d.Monitor.ts d.Monitor.reason d.Monitor.value)
      s.Engine.drift_events;
    List.iter
      (fun (sw : Engine.swap) ->
        Printf.printf
          "                 swap  @ %7.1f s: F1 %.3f -> %.3f on holdout, %d \
           queued packets preserved, %d dropped\n"
          sw.Engine.swap_ts sw.Engine.incumbent_f1 sw.Engine.challenger_f1
          sw.Engine.queue_preserved sw.Engine.dropped_during_swap)
      s.Engine.swaps
  in
  let frozen = run_once ~model ~events Session.Frozen in
  show "frozen model" frozen;
  let adaptive =
    run_once ~model ~events
      (Session.Retrain (Rng.create (Bench_config.seed + 18)))
  in
  show "with updater" adaptive;
  Printf.printf
    "\nthe frozen pipeline stays degraded after the shift; the adaptive one\n\
     detects the drift, retrains on its reservoir, and swaps weights\n\
     mid-stream (Taurus runtime model updates, no pipeline pause).\n";

  Bench_config.section
    "Autopilot: drift-triggered re-search, warm-started from its journals";
  clean_journal_dir ();
  let auto, pilot =
    run_autopilot ~model ~events
      ~updater_rng:(Rng.create (Bench_config.seed + 18))
      ~seed:(Bench_config.seed + 19)
  in
  show "autopilot" auto;
  List.iter
    (fun (e : Autopilot.event) ->
      Printf.printf "                 %s (replayed %d, fresh %d)\n"
        (Autopilot.event_to_string e)
        e.Autopilot.replayed e.Autopilot.fresh)
    (Autopilot.events pilot);
  let pre_f1 = Session.mean_f1 ~before:Session.shift_s auto.Engine.windows in
  let recovery =
    time_to_recovery auto.Engine.windows auto.Engine.swaps ~pre_f1
  in
  let floor = accuracy_floor auto.Engine.windows in
  Printf.printf
    "pre-shift F1 %.3f, floor during re-search %.3f, time to recovery %s\n"
    pre_f1 floor
    (match recovery with
    | Some s -> Printf.sprintf "%.0f s" s
    | None -> "never");

  let spec =
    spec_of_flows ~seed:(Bench_config.seed + 20) ~name:"autopilot_bench"
      (Stream.shift_botnet
         (Flowsim.generate (Rng.create (Bench_config.seed + 21))
            ~mix:(mix n_serve) ()))
  in
  let same_winner = warm_vs_cold ~spec ~seed:(Bench_config.seed + 22) in
  Printf.printf "warm-started vs cold re-search, same winner: %b\n" same_winner;

  let swap_json (s : Engine.swap) =
    Json.Object
      [
        ("ts", Json.Number s.Engine.swap_ts);
        ("incumbent_f1", Json.Number s.Engine.incumbent_f1);
        ("challenger_f1", Json.Number s.Engine.challenger_f1);
      ]
  in
  let event_json (e : Autopilot.event) =
    Json.Object
      [
        ("window", Json.Number (float_of_int e.Autopilot.window));
        ("generation", Json.Number (float_of_int e.Autopilot.generation));
        ("outcome", Json.String (Autopilot.outcome_to_string e.Autopilot.outcome));
        ("replayed", Json.Number (float_of_int e.Autopilot.replayed));
        ("fresh", Json.Number (float_of_int e.Autopilot.fresh));
      ]
  in
  Bench_config.set_bench_member ~path:"BENCH_serve.json" ~key:"autopilot"
    (Json.Object
       [
         ("seed", Json.Number (float_of_int (Bench_config.seed + 19)));
         ("events", Json.Number (float_of_int (Array.length events)));
         ("pre_shift_f1", Json.Number pre_f1);
         ("accuracy_floor", Json.Number floor);
         ( "time_to_recovery_s",
           match recovery with Some s -> Json.Number s | None -> Json.Null );
         ("swaps", Json.List (List.map swap_json auto.Engine.swaps));
         ( "research_events",
           Json.List (List.map event_json (Autopilot.events pilot)) );
         ("warm_matches_cold_winner", Json.Bool same_winner);
       ]);
  Printf.printf "wrote autopilot section of BENCH_serve.json (journals in %s/)\n"
    journal_dir;

  (* Recovery gate: the autopilot must actually swap and bring windowed F1
     back within 0.05 of the pre-shift mean before the trace ends. *)
  (match recovery with
  | Some s when s <= 600. -> ()
  | Some s ->
      Printf.eprintf
        "FAIL: autopilot recovery took %.0f s (gate: 600 s after the shift)\n" s;
      exit 1
  | None ->
      Printf.eprintf
        "FAIL: autopilot never recovered the pre-shift F1 after the regime \
         shift\n";
      exit 1);
  if not same_winner then begin
    Printf.eprintf
      "FAIL: warm-started re-search picked a different winner than the cold \
       search\n";
    exit 1
  end
