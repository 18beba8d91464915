(* Line-rate serving measurement: an open-loop load generator (Poisson and
   bursty arrivals, seeded) drives the serving engine in virtual time at
   offered rates below and above the configured service rate, for both the
   floating-point Reference drain and the fixed-point Quantized drain.
   Reports nearest-rank p50/p99/p999 virtual-time service latency and drop
   rate per run to BENCH_serve.json, replays every quantized verdict through
   the pure Runtime oracle (bit-identity gate), and fails the process when
   the quantized under-load p99 exceeds the SLO budget — the CI latency
   regression gate. Throughput is perfbench's to measure (serve_ips); the
   bench writes no wall-clock figure, so two runs write the same bytes. *)

open Homunculus_serve
module Rng = Homunculus_util.Rng
module Json = Homunculus_util.Json
module Serve_eval = Homunculus_check.Serve_eval

(* Virtual-time latencies are deterministic for a fixed seed, so this budget
   gates regressions in the engine's queueing/batching logic, not host
   speed. Measured p99 at 0.5x Poisson load is ~21 ms (a packet rarely
   waits much past one 32-packet batch at 200 pps); the budget leaves
   ~5x headroom before failing the build, while still catching anything
   that lets the queue ride near its 64-packet capacity (~640 ms). *)
let slo_p99_s = 0.1

let service_rate = Engine.default_config.Engine.service_rate_pps

let show (r : Loadgen.result) =
  let lat p =
    if Array.length r.Loadgen.latencies = 0 then Float.nan
    else Report.percentile p r.Loadgen.latencies
  in
  Printf.printf
    "%-32s offered %6d served %6d dropped %5d (%4.1f%%)\n\
    \                                 latency p50 %6.1f ms  p99 %6.1f ms  p999 %6.1f ms\n"
    r.Loadgen.label r.Loadgen.offered r.Loadgen.served r.Loadgen.dropped
    (100. *. float_of_int r.Loadgen.dropped /. float_of_int (max 1 r.Loadgen.offered))
    (1e3 *. lat 50.) (1e3 *. lat 99.) (1e3 *. lat 99.9)

(* [Loadgen.result_to_json] without its two wall-clock members. *)
let run_json r =
  match Loadgen.result_to_json r with
  | Json.Object members ->
      Json.Object
        (List.filter
           (fun (k, _) -> k <> "wall_s" && k <> "sustained_inferences_per_s")
           members)
  | json -> json

let run () =
  Bench_config.section
    "Serving throughput: open-loop loadgen, Reference vs Quantized drain";
  let n_train, n_serve = if Bench_config.fast then (80, 60) else (150, 120) in
  let model, base =
    Session.botnet_payload ~seed:(Bench_config.seed + 29) ~n_train ~n_serve
  in
  Printf.printf "%d-packet payload trace; service rate %.0f pps, batch %d\n\n"
    (Array.length base) service_rate Engine.default_config.Engine.batch_size;
  let under = 0.5 *. service_rate and over = 1.2 *. service_rate in
  let plans =
    [
      (under, Loadgen.Poisson);
      (over, Loadgen.Poisson);
      (under, Loadgen.Bursty { mean_burst = 8; peak_factor = 4. });
    ]
  in
  let runs =
    List.concat_map
      (fun (mode, label) ->
        Session.sweep
          ~engine:{ Engine.default_config with Engine.mode }
          ~arrival_seed:(Bench_config.seed + 31) ~label model plans base)
      [ (Engine.Reference, "reference"); (Engine.Quantized, "quantized") ]
  in
  List.iter (fun (_, r) -> show r) runs;

  (* Differential gate 1: every quantized verdict must replay bit-identically
     through the pure Runtime oracle. *)
  let replay_mismatches = Serve_eval.sweep_mismatches (List.map fst runs) in
  Printf.printf "\nquantized replay oracle: %d mismatches across %d runs\n"
    replay_mismatches
    (List.length (List.filter (fun (e, _) -> Engine.current_runtime e <> None) runs));

  (* Differential gate 2: Reference vs Quantized verdict agreement on the
     same under-load Poisson trace. *)
  let trace_of label =
    List.find (fun (_, r) -> r.Loadgen.label = label) runs |> fun (e, _) ->
    Engine.trace e
  in
  let ref_label = Printf.sprintf "reference_poisson_%gpps" under in
  let qnt_label = Printf.sprintf "quantized_poisson_%gpps" under in
  let agr = Serve_eval.agreement (trace_of ref_label) (trace_of qnt_label) in
  Printf.printf "reference/quantized agreement: %d/%d (%.3f)\n"
    agr.Serve_eval.agreed agr.Serve_eval.compared agr.Serve_eval.rate;

  (* SLO gate: under-load quantized p99. *)
  let slo_run =
    List.find (fun (_, r) -> r.Loadgen.label = qnt_label) runs |> snd
  in
  let p99 = Loadgen.p99 slo_run in
  Printf.printf "SLO gate: quantized p99 %.1f ms at %.0f pps (budget %.1f ms)\n"
    (1e3 *. p99) under (1e3 *. slo_p99_s);

  let members =
    [
      ("fast", Json.Bool Bench_config.fast);
      ("seed", Json.Number (float_of_int Bench_config.seed));
      ("service_rate_pps", Json.Number service_rate);
      ( "batch_size",
        Json.Number (float_of_int Engine.default_config.Engine.batch_size) );
      ( "queue_capacity",
        Json.Number (float_of_int Engine.default_config.Engine.queue_capacity)
      );
      ("payload_events", Json.Number (float_of_int (Array.length base)));
      ("slo_p99_s", Json.Number slo_p99_s);
      ("slo_p99_measured_s", Json.Number p99);
      ( "replay_mismatches",
        Json.Number (float_of_int replay_mismatches) );
      ("ref_quant_agreement", Json.Number agr.Serve_eval.rate);
      ( "runs",
        Json.List (List.map (fun (_, r) -> run_json r) runs) );
    ]
  in
  (* Keep the serve bench's "autopilot" member if it wrote first. *)
  let path = "BENCH_serve.json" in
  let autopilot = Bench_config.bench_member ~path ~key:"autopilot" in
  Bench_config.write_bench ~path
    (members @ List.map (fun a -> ("autopilot", a)) (Option.to_list autopilot));
  Printf.printf "wrote BENCH_serve.json\n";

  if replay_mismatches > 0 then begin
    Printf.eprintf
      "FAIL: quantized drain diverged from the Runtime replay oracle (%d \
       mismatches)\n"
      replay_mismatches;
    exit 1
  end;
  if not (p99 <= slo_p99_s) then begin
    Printf.eprintf "FAIL: p99 %.4f s exceeds the %.4f s SLO budget\n" p99
      slo_p99_s;
    exit 1
  end
