(* The online serving runtime: stream adaptation, the engine's queueing and
   hot-swap semantics, drift detection, the updater's reservoir, and the
   deterministic drift-recovery scenario of the serving story. *)

open Homunculus_netdata
open Homunculus_serve
module Rng = Homunculus_util.Rng
module Json = Homunculus_util.Json
module Model_ir = Homunculus_backends.Model_ir

let feq = Alcotest.(check (float 1e-9))

(* Stream *)

let small_mix n = { Flowsim.n_flows = n; botnet_frac = 0.5; max_packets = 120 }

let test_stream_ordering_and_determinism () =
  let make () =
    Stream.events (Rng.create 3)
      (Flowsim.generate (Rng.create 4) ~mix:(small_mix 40) ())
  in
  let a = make () and b = make () in
  Alcotest.(check bool) "non-empty" true (Array.length a > 500);
  Alcotest.(check bool) "deterministic" true (a = b);
  let sorted = ref true and last = ref neg_infinity in
  Array.iter
    (fun e ->
      if e.Stream.ts < !last then sorted := false;
      last := e.Stream.ts)
    a;
  Alcotest.(check bool) "ascending" true !sorted;
  Array.iter
    (fun e ->
      Alcotest.(check int) "feature count" 30 (Array.length e.Stream.features);
      Alcotest.(check bool) "min_packets" true
        (e.Stream.packet_index >= Stream.default_config.Stream.min_packets))
    a

let test_stream_rejects_non_finite_start () =
  let flow = Flowsim.generate_flow (Rng.create 7) ~id:0 ~app:"storm" () in
  List.iter
    (fun start ->
      Alcotest.check_raises "non-finite start"
        (Invalid_argument "Stream.events_scheduled: non-finite start")
        (fun () -> ignore (Stream.events_scheduled [| (start, flow) |])))
    [ Float.nan; infinity ]

let test_stream_matches_flowmarker () =
  (* One flow alone in the table: the event at packet k must carry exactly
     the partial flowmarker of the first k packets. *)
  let flow = Flowsim.generate_flow (Rng.create 7) ~id:0 ~app:"storm" () in
  let events = Stream.events_scheduled [| (0., flow) |] in
  Array.iter
    (fun e ->
      let expected =
        Botnet.flow_features Botnet.Fused flow
          ~first_packets:e.Stream.packet_index ()
      in
      Alcotest.(check (array (float 1e-9)))
        (Printf.sprintf "packet %d" e.Stream.packet_index)
        expected e.Stream.features)
    events

(* A schedule full of ties: flows staggered onto whole seconds, flows whose
   packets arrive two to a timestamp, one flow scheduled twice, and two
   distinct flows sharing an id. The digests were recorded before the
   timeline build moved from sorted tuple lists to flat arrays. *)
let golden_schedule () =
  let flows =
    Flowsim.generate (Rng.create 21)
      ~mix:{ Flowsim.n_flows = 24; botnet_frac = 0.5; max_packets = 40 }
      ()
  in
  let tied ~id ~label ~app ~size0 =
    Flow.make ~id ~label ~app
      ~packets:
        (Array.init 8 (fun i ->
             Packet.make ~ts:(float_of_int (i / 2)) ~size:(size0 + (100 * i))))
  in
  let staggered = Array.mapi (fun i f -> (float_of_int (i mod 3), f)) flows in
  let impostor =
    Flow.make ~id:flows.(1).Flow.id ~label:flows.(2).Flow.label
      ~app:flows.(2).Flow.app ~packets:flows.(2).Flow.packets
  in
  Array.append staggered
    [|
      (1., flows.(0));
      (2., impostor);
      (0., tied ~id:1000 ~label:Flow.Botnet ~app:"storm" ~size0:60);
      (1., tied ~id:1000 ~label:Flow.Botnet ~app:"storm" ~size0:60);
      (0., tied ~id:1001 ~label:Flow.Botnet ~app:"waledac" ~size0:80);
      (0., tied ~id:1001 ~label:Flow.Benign ~app:"vuze" ~size0:700);
    |]

let events_digest events =
  Digest.to_hex (Digest.string (Marshal.to_string events [ Marshal.No_sharing ]))

let test_stream_golden_digest () =
  let schedule = golden_schedule () in
  let check name config n digest =
    let events = Stream.events_scheduled ~config schedule in
    Alcotest.(check int) (name ^ " events") n (Array.length events);
    Alcotest.(check string) (name ^ " digest") digest (events_digest events)
  in
  check "default" Stream.default_config 944 "4a86456a463832983a6373977720555c";
  (* Ten flow slots and every packet emitted: evictions mid-flow. *)
  check "tiny table"
    { Stream.default_config with Stream.sram_bytes = 600; min_packets = 1 }
    1034 "182eb532bf24ac19e8c3c2692fa0e643"

let test_shift_botnet () =
  let flows = Flowsim.generate (Rng.create 5) ~mix:(small_mix 30) () in
  let shifted = Stream.shift_botnet flows in
  Array.iteri
    (fun i f ->
      let s = shifted.(i) in
      Alcotest.(check int) "id kept" f.Flow.id s.Flow.id;
      Alcotest.(check bool) "label kept" true (f.Flow.label = s.Flow.label);
      Alcotest.(check int) "packet count kept" (Flow.n_packets f) (Flow.n_packets s);
      match f.Flow.label with
      | Flow.Benign -> Alcotest.(check bool) "benign untouched" true (f == s)
      | Flow.Botnet ->
          Alcotest.(check bool) "sizes grow" true
            (Flow.mean_packet_size s > Flow.mean_packet_size f);
          Alcotest.(check bool) "gaps shrink" true
            (Flow.duration s < Flow.duration f +. 1e-9))
    flows

let test_renumber () =
  let flows = Flowsim.generate (Rng.create 6) ~mix:(small_mix 10) () in
  let renumbered = Stream.renumber ~from:100 flows in
  Array.iteri
    (fun i f -> Alcotest.(check int) "fresh id" (100 + i) f.Flow.id)
    renumbered

(* Monitor *)

let advance monitor ~now =
  ignore (Monitor.advance monitor ~now (fun _ _ -> ()) : int)

let observe_n monitor ~ts0 ~n ~pred ~truth =
  for i = 0 to n - 1 do
    Monitor.observe monitor
      ~ts:(ts0 +. float_of_int i)
      ~queue_depth:i ~features:[| 0. |] ~pred ~truth
  done

let test_monitor_window_metrics () =
  let config =
    { Monitor.default_config with Monitor.window_events = 4; label_delay_s = 10. }
  in
  let monitor = Monitor.create ~config ~n_classes:2 () in
  (* Two correct botnet, one correct benign, one false negative. *)
  Monitor.observe monitor ~ts:0. ~queue_depth:2 ~features:[||] ~pred:1 ~truth:1;
  Monitor.observe monitor ~ts:1. ~queue_depth:4 ~features:[||] ~pred:1 ~truth:1;
  Monitor.observe monitor ~ts:2. ~queue_depth:0 ~features:[||] ~pred:0 ~truth:0;
  Monitor.observe monitor ~ts:3. ~queue_depth:2 ~features:[||] ~pred:0 ~truth:1;
  let truths = ref [] in
  let collect _ truth = truths := truth :: !truths in
  Alcotest.(check int) "labels delayed" 0 (Monitor.advance monitor ~now:5. collect);
  Alcotest.(check int) "all labels arrived" 4
    (Monitor.advance monitor ~now:13. collect);
  Alcotest.(check (list int)) "released in arrival order" [ 1; 1; 0; 1 ]
    (List.rev !truths);
  match Monitor.windows monitor with
  | [ w ] ->
      Alcotest.(check int) "events" 4 w.Monitor.events;
      feq "accuracy" 0.75 w.Monitor.accuracy;
      (* tp 2, fp 0, fn 1 -> F1 = 4/5 *)
      feq "f1" 0.8 w.Monitor.f1;
      Alcotest.(check int) "confusion tp" 2 w.Monitor.confusion.(1).(1);
      Alcotest.(check int) "confusion fn" 1 w.Monitor.confusion.(1).(0);
      feq "mean queue" 2. w.Monitor.mean_queue_depth;
      Alcotest.(check int) "max queue" 4 w.Monitor.max_queue_depth;
      feq "t_start is label arrival" 10. w.Monitor.t_start;
      feq "t_end is label arrival" 13. w.Monitor.t_end
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

let test_monitor_page_hinkley_fires_and_latches () =
  let config =
    {
      Monitor.default_config with
      Monitor.window_events = 50;
      label_delay_s = 0.;
      baseline_windows = 2;
      ph_lambda = 10.;
    }
  in
  let monitor = Monitor.create ~config ~n_classes:2 () in
  (* Clean baseline: two windows of correct verdicts. *)
  observe_n monitor ~ts0:0. ~n:100 ~pred:1 ~truth:1;
  advance monitor ~now:200.;
  Alcotest.(check bool) "baseline set" true
    (Monitor.baseline_accuracy monitor <> None);
  Alcotest.(check bool) "no alarm yet" true (Monitor.poll_drift monitor = None);
  (* Sustained errors: Page–Hinkley must fire before the window closes. *)
  observe_n monitor ~ts0:200. ~n:30 ~pred:0 ~truth:1;
  advance monitor ~now:400.;
  (match Monitor.poll_drift monitor with
  | Some d -> Alcotest.(check string) "reason" "page_hinkley" d.Monitor.reason
  | None -> Alcotest.fail "expected a drift alarm");
  Alcotest.(check bool) "poll clears" true (Monitor.poll_drift monitor = None);
  (* Latched: more errors do not re-fire until rearm. *)
  observe_n monitor ~ts0:400. ~n:50 ~pred:0 ~truth:1;
  advance monitor ~now:600.;
  Alcotest.(check bool) "latched" true (Monitor.poll_drift monitor = None);
  Monitor.rearm monitor;
  observe_n monitor ~ts0:600. ~n:30 ~pred:0 ~truth:1;
  advance monitor ~now:800.;
  Alcotest.(check bool) "re-armed detector fires again" true
    (Monitor.poll_drift monitor <> None);
  Alcotest.(check int) "both alarms logged" 2
    (List.length (Monitor.drifts monitor))

let test_monitor_accuracy_drop () =
  let config =
    {
      Monitor.default_config with
      Monitor.window_events = 20;
      label_delay_s = 0.;
      baseline_windows = 1;
      acc_drop = 0.3;
      ph_lambda = 1e9;  (* silence Page–Hinkley: isolate the window detector *)
    }
  in
  let monitor = Monitor.create ~config ~n_classes:2 () in
  observe_n monitor ~ts0:0. ~n:20 ~pred:1 ~truth:1;
  observe_n monitor ~ts0:20. ~n:20 ~pred:0 ~truth:1;
  advance monitor ~now:100.;
  match Monitor.poll_drift monitor with
  | Some d -> Alcotest.(check string) "reason" "accuracy_drop" d.Monitor.reason
  | None -> Alcotest.fail "expected an accuracy-drop alarm"

let test_monitor_forced_drift () =
  let config =
    { Monitor.default_config with Monitor.window_events = 10; label_delay_s = 0. }
  in
  let monitor = Monitor.create ~config ~n_classes:2 () in
  Monitor.force_drift_at monitor ~window:1;
  (match Monitor.force_drift_at monitor ~window:(-1) with
  | () -> Alcotest.fail "negative window must raise"
  | exception Invalid_argument _ -> ());
  (* Window 0 closes clean: the forced alarm waits for its window. *)
  observe_n monitor ~ts0:0. ~n:10 ~pred:1 ~truth:1;
  advance monitor ~now:100.;
  Alcotest.(check bool) "no alarm before its window" true
    (Monitor.poll_drift monitor = None);
  observe_n monitor ~ts0:100. ~n:10 ~pred:1 ~truth:1;
  advance monitor ~now:200.;
  (match Monitor.poll_drift monitor with
  | Some d ->
      Alcotest.(check string) "forced reason" "injected" d.Monitor.reason;
      Alcotest.(check int) "forced window" 1 d.Monitor.window
  | None -> Alcotest.fail "forced alarm must fire");
  (* No baseline needed, and no re-fire: the registration is consumed. *)
  Monitor.rearm monitor;
  observe_n monitor ~ts0:200. ~n:10 ~pred:1 ~truth:1;
  advance monitor ~now:300.;
  Alcotest.(check bool) "fires once" true (Monitor.poll_drift monitor = None)

let test_monitor_cooldown_hysteresis () =
  let config =
    {
      Monitor.default_config with
      Monitor.window_events = 10;
      label_delay_s = 0.;
      cooldown_windows = 2;
    }
  in
  let monitor = Monitor.create ~config ~n_classes:2 () in
  List.iter (fun window -> Monitor.force_drift_at monitor ~window) [ 0; 1; 2 ];
  let next_window ts0 =
    observe_n monitor ~ts0 ~n:10 ~pred:1 ~truth:1;
    advance monitor ~now:(ts0 +. 100.)
  in
  next_window 0.;
  (match Monitor.poll_drift monitor with
  | Some d -> Alcotest.(check int) "window 0 fires" 0 d.Monitor.window
  | None -> Alcotest.fail "expected the window-0 alarm");
  Monitor.rearm monitor;
  (* Consuming the window-0 alarm starts the 2-window cooldown: the forced
     fire at window 1 is swallowed entirely, not deferred. *)
  next_window 100.;
  Alcotest.(check bool) "window 1 swallowed by cooldown" true
    (Monitor.poll_drift monitor = None);
  next_window 200.;
  (match Monitor.poll_drift monitor with
  | Some d -> Alcotest.(check int) "window 2 fires after cooldown" 2 d.Monitor.window
  | None -> Alcotest.fail "expected the window-2 alarm");
  Alcotest.(check int) "swallowed fire never logged" 2
    (List.length (Monitor.drifts monitor));
  List.iter
    (fun (what, config) ->
      match Monitor.create ~config ~n_classes:2 () with
      | (_ : Monitor.t) -> Alcotest.failf "%s must raise" what
      | exception Invalid_argument _ -> ())
    [
      ("negative cooldown", { config with Monitor.cooldown_windows = -1 });
      (* 0 would average no windows into a NaN baseline, silently
         disabling the accuracy-drop alarm. *)
      ("zero baseline_windows", { config with Monitor.baseline_windows = 0 });
      ("negative baseline_windows",
        { config with Monitor.baseline_windows = -1 });
    ]

(* Updater *)

let test_updater_reservoir_bounded () =
  let config = { Updater.default_config with Updater.capacity = 50 } in
  let u = Updater.create (Rng.create 1) ~config ~n_features:3 ~n_classes:2 () in
  for i = 0 to 199 do
    Updater.record u ~features:[| float_of_int i; 0.; 0. |] ~label:(i mod 2)
  done;
  Alcotest.(check int) "size capped" 50 (Updater.size u);
  Alcotest.(check int) "seen counts all" 200 (Updater.seen u);
  Alcotest.(check int) "calibration bounded" 10
    (Array.length (Updater.calibration_sample u ~n:10))

let test_updater_declines_small_buffer () =
  let u = Updater.create (Rng.create 1) ~n_features:3 ~n_classes:2 () in
  Updater.record u ~features:[| 1.; 2.; 3. |] ~label:1;
  let incumbent =
    Model_ir.Svm { name = "m"; class_weights = [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |] |]; biases = [| 0.; 0. |] }
  in
  Alcotest.(check bool) "declined" true
    (Updater.try_update u ~incumbent ~ts:1. ~reason:"test" = None);
  match Updater.decisions u with
  | [ d ] ->
      Alcotest.(check bool) "not accepted" false d.Updater.accepted;
      Alcotest.(check string) "note" "buffer below min_buffer" d.Updater.note
  | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds)

(* Engine *)

let test_engine_queue_overflow_drops () =
  let flows = Flowsim.generate (Rng.create 8) ~mix:(small_mix 30) () in
  let events = Stream.events (Rng.create 9) ~start_window_s:100. flows in
  let model =
    Updater.bootstrap (Rng.create 10) ~algorithm:`Tree ~bins:Botnet.Fused
      ~name:"bd" (Flowsim.generate (Rng.create 11) ~mix:(small_mix 30) ())
  in
  let config =
    {
      Engine.default_config with
      Engine.queue_capacity = 8;
      service_rate_pps = 5.;  (* far below the offered packet rate *)
    }
  in
  let monitor = Monitor.create ~n_classes:2 () in
  let engine = Engine.create ~config ~model ~monitor () in
  let s = Engine.run engine events in
  Alcotest.(check int) "offered all" (Array.length events) s.Engine.offered;
  Alcotest.(check bool) "queue overflow drops" true (s.Engine.dropped > 0);
  Alcotest.(check int) "conservation" s.Engine.offered
    (s.Engine.served + s.Engine.dropped);
  (* Everything admitted is eventually classified and labeled. *)
  let window_events =
    List.fold_left (fun acc w -> acc + w.Monitor.events) 0 s.Engine.windows
  in
  Alcotest.(check int) "all served events labeled" s.Engine.served window_events

let test_engine_quantized_agrees_with_reference () =
  let train = Flowsim.generate (Rng.create 12) ~mix:(small_mix 40) () in
  let flows = Flowsim.generate (Rng.create 13) ~mix:(small_mix 25) () in
  let events = Stream.events (Rng.create 14) flows in
  let model =
    Updater.bootstrap (Rng.create 15) ~algorithm:`Svm ~bins:Botnet.Fused
      ~name:"bd" train
  in
  let run mode =
    let monitor = Monitor.create ~n_classes:2 () in
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.mode }
        ~model ~monitor ()
    in
    Engine.run engine events
  in
  let ref_run = run Engine.Reference and quant_run = run Engine.Quantized in
  Alcotest.(check int) "same served" ref_run.Engine.served quant_run.Engine.served;
  let acc s =
    let n = List.fold_left (fun a w -> a + w.Monitor.events) 0 s.Engine.windows in
    let c =
      List.fold_left
        (fun a w ->
          a + w.Monitor.confusion.(0).(0) + w.Monitor.confusion.(1).(1))
        0 s.Engine.windows
    in
    float_of_int c /. float_of_int n
  in
  (* Partial flowmarkers are normalized histograms (all features in [0, 1]),
     comfortably inside the 8.8 key range, so the MAT runtime should track
     the floating-point reference closely. *)
  Alcotest.(check bool) "quantized close to reference" true
    (Float.abs (acc ref_run -. acc quant_run) < 0.05)

(* The deployment story end to end: traffic shifts mid-stream, the frozen
   pipeline stays degraded, the adaptive one detects, retrains, hot-swaps
   exactly once without dropping a queued packet, and recovers. *)

let drift_scenario =
  Session.drift_scenario ~name:"bd" ~seed:2040 ~n_train:120 ~n_serve:100

let run_scenario ~model ~events ~with_updater =
  let config =
    {
      Session.default_config with
      Session.updater =
        { Updater.default_config with Updater.min_gain = 0.05; max_swaps = 1 };
      updates =
        (if with_updater then Session.Retrain (Rng.create 77) else Session.Frozen);
    }
  in
  Engine.run (Session.create ~config model) events

let test_drift_recovery () =
  let model, events = drift_scenario () in
  (* Frozen: no updater, the shift permanently degrades windowed F1. *)
  let frozen = run_scenario ~model ~events ~with_updater:false in
  let pre = Session.mean_f1 ~before:Session.shift_s frozen.Engine.windows in
  Alcotest.(check bool)
    (Printf.sprintf "healthy before the shift (pre %.3f)" pre)
    true (pre > 0.85);
  let degraded = Session.mean_f1 ~after:700. frozen.Engine.windows in
  Alcotest.(check bool) "frozen model stays degraded" true
    (degraded < pre -. 0.15);
  Alcotest.(check int) "frozen model never swaps" 0
    (List.length frozen.Engine.swaps);
  (* Adaptive: drift fires, one validated hot-swap, queued packets survive,
     windowed F1 recovers to within 5 points of the pre-drift level. *)
  let adaptive = run_scenario ~model ~events ~with_updater:true in
  Alcotest.(check bool) "drift detected" true
    (List.length adaptive.Engine.drift_events >= 1);
  (match adaptive.Engine.drift_events with
  | d :: _ ->
      Alcotest.(check bool) "detected after the shift" true
        (d.Monitor.ts > 600.)
  | [] -> ());
  (match adaptive.Engine.swaps with
  | [ s ] ->
      Alcotest.(check int) "no drops during the swap" 0
        s.Engine.dropped_during_swap;
      Alcotest.(check bool) "validated improvement" true
        (s.Engine.challenger_f1 >= s.Engine.incumbent_f1 +. 0.05)
  | swaps -> Alcotest.failf "expected exactly 1 hot-swap, got %d" (List.length swaps));
  Alcotest.(check int) "hot-swap causes no extra drops" frozen.Engine.dropped
    adaptive.Engine.dropped;
  let swap_ts = (List.hd adaptive.Engine.swaps).Engine.swap_ts in
  let recovered = Session.mean_f1 ~after:swap_ts adaptive.Engine.windows in
  Alcotest.(check bool)
    (Printf.sprintf "recovers (pre %.3f, post-swap %.3f)" pre recovered)
    true
    (recovered >= pre -. 0.05);
  (* Same inputs, same seeds: the whole scenario is reproducible. *)
  let again = run_scenario ~model ~events ~with_updater:true in
  Alcotest.(check int) "deterministic swap count"
    (List.length adaptive.Engine.swaps)
    (List.length again.Engine.swaps);
  Alcotest.(check bool) "deterministic windows" true
    (List.map (fun w -> w.Monitor.f1) again.Engine.windows
    = List.map (fun w -> w.Monitor.f1) adaptive.Engine.windows)

(* Report *)

let test_report_jsonl_round_trips () =
  let model, events = drift_scenario () in
  let events = Array.sub events 0 (Stdlib.min 4000 (Array.length events)) in
  let summary = run_scenario ~model ~events ~with_updater:false in
  let jsonl = Report.to_jsonl summary in
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has records" true (List.length lines > 3);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      match Json.member j "event" with
      | Json.String ("window" | "drift" | "swap" | "decision") -> ()
      | _ -> Alcotest.failf "unexpected record %s" line)
    lines;
  let s = Report.summary_to_json summary in
  Alcotest.(check int) "summary served" summary.Engine.served
    (Json.to_int (Json.member s "served"));
  Alcotest.(check int) "summary windows" (List.length summary.Engine.windows)
    (List.length (Json.to_list (Json.member s "windows")))

(* Allocation discipline of the quantized hot path. *)

module Runtime = Homunculus_backends.Runtime

let botnet_svm_runtime ~seed =
  let train = Flowsim.generate (Rng.create seed) ~mix:(small_mix 40) () in
  let model =
    Updater.bootstrap (Rng.create (seed + 1)) ~algorithm:`Svm
      ~bins:Botnet.Fused ~name:"bd" train
  in
  let events =
    Stream.events (Rng.create (seed + 2))
      (Flowsim.generate (Rng.create (seed + 3)) ~mix:(small_mix 20) ())
  in
  let calibration =
    Array.map (fun e -> e.Stream.features) (Array.sub events 0 200)
  in
  (Runtime.load ~calibration model, events)

let test_classify_into_allocates_nothing () =
  let rt, events = botnet_svm_runtime ~seed:30 in
  let ws = Runtime.make_workspace rt in
  let batch = 32 in
  let src = Array.init batch (fun i -> events.(i).Stream.features) in
  let dst = Array.make batch 0 in
  (* Warm-up drains any one-time lazy work, then 200 steady-state batches
     must stay inside the preallocated workspace: the only tolerated minor
     words are the boxed floats the two Gc.minor_words probes return. *)
  Runtime.classify_into rt ws ~src ~n:batch ~dst;
  let before = Gc.minor_words () in
  for _ = 1 to 200 do
    Runtime.classify_into rt ws ~src ~n:batch ~dst
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "200 batches allocate ~0 minor words (got %.0f)" delta)
    true (delta <= 256.)

let test_engine_drain_allocation_bounded () =
  (* Engine-level steady state: minor words per 32 served packets stay
     under a small constant, independent of how many batches have already
     been served — no per-packet boxing, no fresh buffers. At this trace's
     arrival rate almost every drained batch holds one packet, and each
     batch boxes the engine's advanced server clock once (2 words): about
     62 words per 32 packets. Closed monitor windows add about 8; one
     boxed float per packet would add 64. *)
  let _, events = botnet_svm_runtime ~seed:34 in
  let model =
    Updater.bootstrap (Rng.create 35) ~algorithm:`Svm ~bins:Botnet.Fused
      ~name:"bd"
      (Flowsim.generate (Rng.create 36) ~mix:(small_mix 40) ())
  in
  let run n_events =
    let monitor = Monitor.create ~n_classes:2 () in
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.mode = Engine.Quantized }
        ~model ~monitor ()
    in
    let events =
      Array.sub events 0 (Stdlib.min n_events (Array.length events))
    in
    let before = Gc.minor_words () in
    let s = Engine.run engine events in
    let words = Gc.minor_words () -. before in
    let batches =
      float_of_int s.Engine.served
      /. float_of_int Engine.default_config.Engine.batch_size
    in
    words /. Stdlib.max 1. batches
  in
  ignore (run 256) (* warm-up *);
  let per_batch = run 3200 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per 32 served packets < 80 (got %.0f)"
       per_batch)
    true
    (per_batch < 80.)

(* The Reference DNN drain: [Mlp.predict_into] on the engine's one MLP
   workspace. Verdicts must equal both batch and per-sample oracles for the
   model of the epoch that served them, and the steady drain must stay
   within the monitor's per-packet bookkeeping. *)

module Inference = Homunculus_backends.Inference
module Mlp = Homunculus_ml.Mlp

let dnn_model ~seed ~hidden =
  Updater.bootstrap (Rng.create seed) ~algorithm:`Dnn ~hidden
    ~bins:Botnet.Fused ~name:"dnn"
    (Flowsim.generate (Rng.create (seed + 1)) ~mix:(small_mix 40) ())

(* Stream features and labels, each event [gap ()] seconds after the last. *)
let dnn_events ~seed ~gap =
  let events =
    Stream.events (Rng.create seed)
      (Flowsim.generate (Rng.create (seed + 1)) ~mix:(small_mix 20) ())
  in
  let t = ref 0. in
  Array.map
    (fun e ->
      t := !t +. gap ();
      { e with Stream.ts = !t })
    events

let run_reference_dnn ?research ?(monitor = Monitor.create ~n_classes:2 ())
    ~model events =
  let n = Array.length events in
  let config =
    {
      Engine.default_config with
      Engine.mode = Engine.Reference;
      queue_capacity = n;
      trace_capacity = n;
    }
  in
  let engine = Engine.create ~config ~model ~monitor ?research () in
  let s = Engine.run engine events in
  Alcotest.(check int) "nothing dropped" 0 s.Engine.dropped;
  engine

(* Every traced verdict against [Mlp.predict_all] and
   [Inference.predict_all] on the model of its epoch. *)
let check_reference_verdicts engine =
  let tr = Engine.trace engine in
  Array.iteri
    (fun epoch model ->
      let idx =
        List.filter
          (fun i -> tr.Engine.epochs.(i) = epoch)
          (List.init tr.Engine.n Fun.id)
        |> Array.of_list
      in
      let xs = Array.map (fun i -> tr.Engine.xs.(i)) idx in
      let served = Array.map (fun i -> tr.Engine.verdicts.(i)) idx in
      let mlp = Option.get (Inference.mlp_of_ir model) in
      Alcotest.(check (array int))
        (Printf.sprintf "epoch %d = Mlp.predict_all" epoch)
        (Mlp.predict_all mlp xs) served;
      Alcotest.(check (array int))
        (Printf.sprintf "epoch %d = Inference.predict_all" epoch)
        (Inference.predict_all model xs) served)
    (Engine.epoch_models engine);
  tr

let test_reference_dnn_full_batches () =
  (* Arrivals 20x faster than service on an unbounded queue: every drained
     batch but the last is a full [batch_size]. *)
  let model = dnn_model ~seed:40 ~hidden:[| 16 |] in
  let slot = 1. /. Engine.default_config.Engine.service_rate_pps in
  let events = dnn_events ~seed:42 ~gap:(fun () -> slot /. 20.) in
  let tr = check_reference_verdicts (run_reference_dnn ~model events) in
  Alcotest.(check int) "all traced" (Array.length events) tr.Engine.n

let test_reference_dnn_partial_batches () =
  (* Offered load near 40% of the service rate, in short bursts separated
     by idle gaps: each drain finds a burst's worth of packets queued, so
     batches are short and of varying length ([k < batch_size]). *)
  let model = dnn_model ~seed:40 ~hidden:[| 16 |] in
  let slot = 1. /. Engine.default_config.Engine.service_rate_pps in
  let rng = Rng.create 43 in
  let gap () =
    if Rng.int rng 8 = 0 then Rng.float rng (40. *. slot)
    else Rng.float rng (slot /. 4.)
  in
  let events = dnn_events ~seed:42 ~gap in
  let tr = check_reference_verdicts (run_reference_dnn ~model events) in
  Alcotest.(check int) "all traced" (Array.length events) tr.Engine.n

let test_reference_dnn_across_install () =
  (* A forced drift installs a challenger with different hidden widths
     mid-stream: the engine must rebuild its MLP workspace with the model,
     or the first post-swap batch runs the new weights on the old shapes. *)
  let model = dnn_model ~seed:40 ~hidden:[| 16 |] in
  let challenger = dnn_model ~seed:50 ~hidden:[| 24; 8 |] in
  let installed = ref false in
  let research ~now:_ ~drift:_ ~incumbent:_ =
    if !installed then Engine.Keep
    else begin
      installed := true;
      Engine.Install
        { model = challenger; incumbent_f1 = 0.; challenger_f1 = 1. }
    end
  in
  let monitor =
    Monitor.create
      ~config:
        {
          Monitor.default_config with
          Monitor.window_events = 64;
          label_delay_s = 0.;
        }
      ~n_classes:2 ()
  in
  Monitor.force_drift_at monitor ~window:2;
  let slot = 1. /. Engine.default_config.Engine.service_rate_pps in
  let rng = Rng.create 44 in
  let events = dnn_events ~seed:42 ~gap:(fun () -> Rng.float rng (4. *. slot)) in
  let engine = run_reference_dnn ~research ~monitor ~model events in
  Alcotest.(check int) "one swap" 1 (Engine.epoch engine);
  let tr = check_reference_verdicts engine in
  let served_by e =
    Array.fold_left (fun c x -> if x = e then c + 1 else c) 0 tr.Engine.epochs
  in
  Alcotest.(check bool) "both epochs served traffic" true
    (served_by 0 > 0 && served_by 1 > 0)

let test_predict_into_allocation_constant () =
  (* A steady [Mlp.predict_into] call allocates only the optional-argument
     and epilogue-selector boxes of its per-layer kernel calls — a constant,
     whatever the batch length. Anything per row (a copied sample, a boxed
     activation, a fresh logits row) would scale with [n] past the bound. *)
  let mlp =
    Mlp.create (Rng.create 60) ~input_dim:7 ~hidden:[| 43; 19 |] ~output_dim:2
      ()
  in
  let batch = 32 in
  let ws = Mlp.make_workspace mlp ~batch in
  let rng = Rng.create 61 in
  let src =
    Array.init batch (fun _ -> Array.init 7 (fun _ -> Rng.uniform rng (-2.) 2.))
  in
  let dst = Array.make batch 0 in
  List.iter
    (fun n ->
      Mlp.predict_into mlp ws ~src ~n ~dst;
      let before = Gc.minor_words () in
      for _ = 1 to 200 do
        Mlp.predict_into mlp ws ~src ~n ~dst
      done;
      let per_call = (Gc.minor_words () -. before) /. 200. in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: <= 64 minor words per call (got %.1f)" n
           per_call)
        true (per_call <= 64.))
    [ 1; 7; batch ]

let test_reference_dnn_drain_allocation () =
  (* The whole Reference DNN drain at saturation (full 32-packet batches):
     what remains per batch is [Mlp.predict_into]'s per-call constant, the
     boxed server clock and the closed monitor windows, under 128 words.
     One boxed float per packet would add 64. *)
  let model = dnn_model ~seed:40 ~hidden:[| 16 |] in
  let slot = 1. /. Engine.default_config.Engine.service_rate_pps in
  let events = dnn_events ~seed:62 ~gap:(fun () -> slot /. 20.) in
  let run events =
    let monitor = Monitor.create ~n_classes:2 () in
    let engine =
      Engine.create
        ~config:{ Engine.default_config with Engine.mode = Engine.Reference }
        ~model ~monitor ()
    in
    let before = Gc.minor_words () in
    let s = Engine.run engine events in
    let words = Gc.minor_words () -. before in
    words
    /. (float_of_int s.Engine.served
       /. float_of_int Engine.default_config.Engine.batch_size)
  in
  ignore (run (Array.sub events 0 256)) (* warm-up *);
  let per_batch = run events in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per drained batch < 128 (got %.0f)"
       per_batch)
    true (per_batch < 128.)

(* Conservation under random queue/batch/service configurations: every
   offered packet is either served or dropped, never both, never lost. *)

let conservation_model =
  Model_ir.Svm
    {
      name = "cons";
      class_weights = [| [| 1.; -1. |]; [| -1.; 1. |] |];
      biases = [| 0.; 0. |];
    }

let prop_queue_conservation =
  let seed_gen =
    QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)
  in
  QCheck.Test.make ~name:"offered = served + dropped over random configs"
    ~count:30 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let n = 100 + Rng.int rng 900 in
      let xs =
        Array.init n (fun _ -> [| Rng.uniform rng (-2.) 2.; Rng.float rng 1. |])
      in
      let ts = Array.make n 0. in
      let t = ref 0. in
      for i = 0 to n - 1 do
        t := !t +. Rng.float rng 0.02;
        ts.(i) <- !t
      done;
      let events = Stream.of_samples ~ts xs in
      let config =
        {
          Engine.default_config with
          Engine.queue_capacity = 1 + Rng.int rng 64;
          batch_size = 1 + Rng.int rng 16;
          service_rate_pps = 1. +. Rng.float rng 400.;
          mode = (if Rng.int rng 2 = 0 then Engine.Reference else Engine.Quantized);
          trace_capacity = (if Rng.int rng 2 = 0 then 0 else n);
        }
      in
      let monitor = Monitor.create ~n_classes:2 () in
      let engine = Engine.create ~config ~model:conservation_model ~monitor () in
      let s = Engine.run engine events in
      s.Engine.offered = n
      && s.Engine.offered = s.Engine.served + s.Engine.dropped
      && (Engine.trace engine).Engine.n
         = Stdlib.min config.Engine.trace_capacity s.Engine.served)

(* Nearest-rank percentiles: pinned on the 1..1000 vector, where linear
   interpolation (Stats.percentile) would give 999.001 at p999 — the
   nearest-rank definition must return an actual sample. *)

let test_percentile_nearest_rank () =
  let rng = Rng.create 99 in
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  (* Shuffle: percentile must sort internally. *)
  for i = 999 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done;
  feq "p50" 500. (Report.percentile 50. xs);
  feq "p99" 990. (Report.percentile 99. xs);
  feq "p999 is the 999th sample, not interpolated" 999.
    (Report.percentile 99.9 xs);
  feq "p100" 1000. (Report.percentile 100. xs);
  feq "p0.1 is the smallest sample" 1. (Report.percentile 0.1 xs);
  feq "singleton" 7. (Report.percentile 99.9 [| 7. |]);
  let raises f =
    match f () with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty raises" true
    (raises (fun () -> Report.percentile 50. [||]));
  Alcotest.(check bool) "p > 100 raises" true
    (raises (fun () -> Report.percentile 101. xs))

(* A challenger whose holdout F1 comes back NaN (degenerate holdout) must
   never be promoted, and a NaN incumbent measurement must not hand the
   challenger a free pass either. *)
let test_updater_declines_nan_challenger () =
  let accepts = Updater.accepts ~min_gain:0.02 in
  Alcotest.(check bool) "NaN challenger declined" false
    (accepts ~incumbent_f1:0.5 ~challenger_f1:Float.nan);
  Alcotest.(check bool) "NaN incumbent declines" false
    (accepts ~incumbent_f1:Float.nan ~challenger_f1:0.9);
  Alcotest.(check bool) "both NaN declined" false
    (accepts ~incumbent_f1:Float.nan ~challenger_f1:Float.nan);
  Alcotest.(check bool) "clear margin accepted" true
    (accepts ~incumbent_f1:0.5 ~challenger_f1:0.53);
  Alcotest.(check bool) "inside margin declined" false
    (accepts ~incumbent_f1:0.5 ~challenger_f1:0.51)

let suite =
  [
    Alcotest.test_case "stream ordering/determinism" `Quick
      test_stream_ordering_and_determinism;
    Alcotest.test_case "stream matches flowmarker" `Quick
      test_stream_matches_flowmarker;
    Alcotest.test_case "stream rejects non-finite start" `Quick
      test_stream_rejects_non_finite_start;
    Alcotest.test_case "stream golden digest" `Quick test_stream_golden_digest;
    Alcotest.test_case "shift botnet" `Quick test_shift_botnet;
    Alcotest.test_case "renumber" `Quick test_renumber;
    Alcotest.test_case "monitor window metrics" `Quick test_monitor_window_metrics;
    Alcotest.test_case "monitor page-hinkley" `Quick
      test_monitor_page_hinkley_fires_and_latches;
    Alcotest.test_case "monitor accuracy drop" `Quick test_monitor_accuracy_drop;
    Alcotest.test_case "monitor forced drift" `Quick test_monitor_forced_drift;
    Alcotest.test_case "monitor cooldown hysteresis" `Quick
      test_monitor_cooldown_hysteresis;
    Alcotest.test_case "updater reservoir" `Quick test_updater_reservoir_bounded;
    Alcotest.test_case "updater declines small buffer" `Quick
      test_updater_declines_small_buffer;
    Alcotest.test_case "updater declines NaN challenger" `Quick
      test_updater_declines_nan_challenger;
    Alcotest.test_case "engine queue drops" `Quick test_engine_queue_overflow_drops;
    Alcotest.test_case "engine quantized mode" `Quick
      test_engine_quantized_agrees_with_reference;
    Alcotest.test_case "drift recovery" `Quick test_drift_recovery;
    Alcotest.test_case "report jsonl" `Quick test_report_jsonl_round_trips;
    Alcotest.test_case "classify_into allocates nothing" `Quick
      test_classify_into_allocates_nothing;
    Alcotest.test_case "engine drain allocation bounded" `Quick
      test_engine_drain_allocation_bounded;
    Alcotest.test_case "predict_into allocation constant" `Quick
      test_predict_into_allocation_constant;
    Alcotest.test_case "reference dnn drain allocation" `Quick
      test_reference_dnn_drain_allocation;
    Alcotest.test_case "reference dnn full batches" `Quick
      test_reference_dnn_full_batches;
    Alcotest.test_case "reference dnn partial batches" `Quick
      test_reference_dnn_partial_batches;
    Alcotest.test_case "reference dnn across install" `Quick
      test_reference_dnn_across_install;
    Alcotest.test_case "percentile nearest-rank" `Quick
      test_percentile_nearest_rank;
    QCheck_alcotest.to_alcotest prop_queue_conservation;
  ]
