(* Differential tests for the quantized serving drain: every verdict the
   engine emits in Quantized mode must be bit-identical to a pure
   Runtime encode+lookup replay of the same trace — on dataset-derived
   payloads (nslkdd, iot) and across a mid-trace hot-swap, where the
   replay must select the table generation (epoch) that actually served
   each packet. *)

open Homunculus_serve
module Rng = Homunculus_util.Rng
module Runtime = Homunculus_backends.Runtime
module Serve_eval = Homunculus_check.Serve_eval

(* The quantized loadgen path: an SVM fit on a dataset's train split, its
   test split swept through a Quantized engine at an open-loop Poisson
   rate; returns the engine with its completed trace. *)
let run_dataset ~seed dataset =
  let model, base = Session.dataset_payload ~seed dataset in
  match
    Session.sweep
      ~engine:{ Engine.default_config with Engine.mode = Engine.Quantized }
      ~arrival_seed:(seed + 1) ~label:"q" model
      [ (120., Loadgen.Poisson) ]
      base
  with
  | [ (engine, r) ] -> (engine, r.Loadgen.summary)
  | runs -> Alcotest.failf "one plan, %d runs" (List.length runs)

(* Packet-for-packet replay against the runtime directly — independent of
   Serve_eval, so the oracle module is itself cross-checked. No swap here,
   so a single workspace against the engine's current runtime suffices. *)
let test_nslkdd_manual_replay () =
  let engine, summary = run_dataset ~seed:501 `Nslkdd in
  let tr = Engine.trace engine in
  Alcotest.(check int) "trace covers every served packet" summary.Engine.served
    tr.Engine.n;
  Alcotest.(check bool) "non-trivial trace" true (tr.Engine.n > 500);
  let rt =
    match Engine.current_runtime engine with
    | Some rt -> rt
    | None -> Alcotest.fail "quantized engine must expose its runtime"
  in
  let ws = Runtime.make_workspace rt in
  for i = 0 to tr.Engine.n - 1 do
    Runtime.encode_into rt ws tr.Engine.xs.(i);
    Alcotest.(check int)
      (Printf.sprintf "packet %d verdict" i)
      tr.Engine.verdicts.(i) (Runtime.lookup rt ws)
  done

let check_oracle_replay ~name (engine, summary) =
  let rp = Serve_eval.replay_quantized engine in
  Alcotest.(check int)
    (name ^ ": every served packet replayed")
    summary.Engine.served rp.Serve_eval.replayed;
  Alcotest.(check int)
    (name ^ ": bit-identical to the Runtime oracle")
    0
    (List.length rp.Serve_eval.mismatches)

let test_nslkdd_oracle () = check_oracle_replay ~name:"nslkdd" (run_dataset ~seed:502 `Nslkdd)
let test_iot_oracle () = check_oracle_replay ~name:"iot" (run_dataset ~seed:503 `Iot)

(* The drift scenario of test_serve, but with an SVM incumbent so the
   Quantized drain serves it, and an updater armed for exactly one
   hot-swap: the trace must span two table generations and still replay
   bit-identically, epoch by epoch. *)
let test_swap_replay () =
  let model, events =
    Session.drift_scenario ~algorithm:`Svm ~name:"bd" ~seed:2041 ~n_train:120
      ~n_serve:100 ()
  in
  let config =
    {
      Session.default_config with
      Session.engine =
        {
          Engine.default_config with
          Engine.mode = Engine.Quantized;
          trace_capacity = Array.length events;
        };
      updater =
        { Updater.default_config with Updater.min_gain = 0.02; max_swaps = 1 };
      updates = Session.Retrain (Rng.create 77);
    }
  in
  let engine = Session.create ~config model in
  let summary = Engine.run engine events in
  Alcotest.(check int) "exactly one hot-swap" 1
    (List.length summary.Engine.swaps);
  Alcotest.(check int) "epoch advanced with the swap" 1 (Engine.epoch engine);
  Alcotest.(check int) "one runtime per epoch" 2
    (Array.length (Engine.epoch_runtimes engine));
  let tr = Engine.trace engine in
  let served_in e =
    let c = ref 0 in
    for i = 0 to tr.Engine.n - 1 do
      if tr.Engine.epochs.(i) = e then incr c
    done;
    !c
  in
  Alcotest.(check bool) "packets served before the swap" true (served_in 0 > 0);
  Alcotest.(check bool) "packets served after the swap" true (served_in 1 > 0);
  Alcotest.(check int) "no third epoch" tr.Engine.n (served_in 0 + served_in 1);
  check_oracle_replay ~name:"swap" (engine, summary)

let suite =
  [
    Alcotest.test_case "nslkdd manual replay" `Quick test_nslkdd_manual_replay;
    Alcotest.test_case "nslkdd oracle replay" `Quick test_nslkdd_oracle;
    Alcotest.test_case "iot oracle replay" `Quick test_iot_oracle;
    Alcotest.test_case "hot-swap epoch replay" `Quick test_swap_replay;
  ]
