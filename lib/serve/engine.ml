module Model_ir = Homunculus_backends.Model_ir
module Inference = Homunculus_backends.Inference
module Runtime = Homunculus_backends.Runtime
module Taurus = Homunculus_backends.Taurus
module Mlp = Homunculus_ml.Mlp

type mode = Reference | Quantized

type config = {
  queue_capacity : int;
  batch_size : int;
  service_rate_pps : float;
  mode : mode;
  entries_per_feature : int;
  trace_capacity : int;
}

let default_config =
  {
    queue_capacity = 64;
    batch_size = 32;
    service_rate_pps = 200.;
    mode = Reference;
    entries_per_feature = 64;
    trace_capacity = 0;
  }

type swap = {
  swap_ts : float;
  swap_reason : string;
  queue_preserved : int;
  dropped_during_swap : int;
  incumbent_f1 : float;
  challenger_f1 : float;
}

type summary = {
  offered : int;
  served : int;
  dropped : int;
  swaps : swap list;
  drift_events : Monitor.drift list;
  windows : Monitor.window list;
  final_model : Model_ir.t;
  updater_decisions : Updater.decision list;
}

type trace = {
  n : int;
  arrivals : float array;
  completions : float array;
  verdicts : int array;
  epochs : int array;
  truths : int array;
  xs : float array array;
}

type reaction =
  | Keep
  | Install of {
      model : Model_ir.t;
      incumbent_f1 : float;
      challenger_f1 : float;
    }

type research_hook =
  now:float -> drift:Monitor.drift -> incumbent:Model_ir.t -> reaction

type t = {
  config : config;
  mutable model_ir : Model_ir.t;
  mutable runtime : Runtime.t option;  (* Some in Quantized mode *)
  mutable rt_ws : Runtime.workspace option;  (* paired with [runtime] *)
  mutable ref_dnn : (Mlp.t * Mlp.workspace) option;
      (* Some in Reference mode for DNN IRs: the batched MLP and its one
         [batch_size] workspace *)
  monitor : Monitor.t;
  updater : Updater.t option;
  research : research_hook option;
  record : float array -> int -> unit;
      (* feeds a labeled event to the updater's example buffer (a no-op
         without one); built once so releasing a label allocates nothing *)
  (* The admission queue: a FIFO ring of [queue_capacity] slots holding
     [q_len] events from [q_head] (wrapping). *)
  queue : Stream.event array;
  mutable q_head : int;
  mutable q_len : int;
  slot : float;
      (* one service slot, [1 / service_rate_pps]; stored once, because a
         float computed per batch would box when passed to the monitor *)
  mutable srv : float;  (* virtual time the server is next free *)
  mutable offered : int;
  mutable served : int;
  mutable dropped : int;
  mutable rev_swaps : swap list;
  mutable epoch : int;  (* 0, +1 per installed hot-swap *)
  mutable rev_epoch_runtimes : Runtime.t list;  (* retired, newest first *)
  mutable rev_epoch_models : Model_ir.t list;  (* retired, newest first *)
  (* Preallocated drain workspaces: the steady-state batch loop pops into
     these instead of allocating per batch. [batch_x] holds pointers to the
     popped events' feature arrays, never copies. *)
  batch_ev : Stream.event array;
  batch_x : float array array;
  batch_truth : int array;
  verdicts : int array;
  (* Preallocated trace ring (first [trace_capacity] served packets). *)
  trace_arrival : float array;
  trace_done : float array;
  trace_verdict : int array;
  trace_epoch : int array;
  trace_truth : int array;
  trace_x : float array array;
  mutable trace_len : int;
}

let dummy_event =
  {
    Stream.ts = 0.;
    flow_id = -1;
    app = "";
    label = 0;
    packet_index = 0;
    features = [||];
  }

let load_runtime config model =
  Runtime.load ~entries_per_feature:config.entries_per_feature model

(* Built together for every installed model: a challenger can change the
   hidden widths, so the workspace cannot outlive its MLP. *)
let reference_dnn config model =
  Option.map
    (fun mlp -> (mlp, Mlp.make_workspace mlp ~batch:config.batch_size))
    (Inference.mlp_of_ir model)

let create ?(config = default_config) ~model ~monitor ?updater ?research () =
  if config.queue_capacity <= 0 then invalid_arg "Engine.create: queue_capacity <= 0";
  if config.batch_size <= 0 then invalid_arg "Engine.create: batch_size <= 0";
  if config.service_rate_pps <= 0. then
    invalid_arg "Engine.create: service_rate_pps <= 0";
  if config.trace_capacity < 0 then
    invalid_arg "Engine.create: trace_capacity < 0";
  let runtime =
    match config.mode with
    | Reference -> None
    | Quantized -> Some (load_runtime config model)
  in
  let ref_dnn =
    match config.mode with
    | Reference -> reference_dnn config model
    | Quantized -> None
  in
  let cap = config.trace_capacity in
  {
    config;
    model_ir = model;
    runtime;
    rt_ws = Option.map Runtime.make_workspace runtime;
    ref_dnn;
    monitor;
    updater;
    research;
    record =
      (match updater with
      | None -> fun _ _ -> ()
      | Some u -> fun features label -> Updater.record u ~features ~label);
    queue = Array.make config.queue_capacity dummy_event;
    q_head = 0;
    q_len = 0;
    slot = 1. /. config.service_rate_pps;
    srv = 0.;
    offered = 0;
    served = 0;
    dropped = 0;
    rev_swaps = [];
    epoch = 0;
    rev_epoch_runtimes = [];
    rev_epoch_models = [];
    batch_ev = Array.make config.batch_size dummy_event;
    batch_x = Array.make config.batch_size [||];
    batch_truth = Array.make config.batch_size 0;
    verdicts = Array.make config.batch_size 0;
    trace_arrival = Array.make cap 0.;
    trace_done = Array.make cap 0.;
    trace_verdict = Array.make cap 0;
    trace_epoch = Array.make cap 0;
    trace_truth = Array.make cap 0;
    trace_x = Array.make cap [||];
    trace_len = 0;
  }

let model t = t.model_ir

let current_runtime t = t.runtime

let epoch t = t.epoch

let epoch_runtimes t =
  match t.runtime with
  | None -> [||]
  | Some rt -> Array.of_list (List.rev (rt :: t.rev_epoch_runtimes))

let epoch_models t = Array.of_list (List.rev (t.model_ir :: t.rev_epoch_models))

let trace t =
  {
    n = t.trace_len;
    arrivals = Array.sub t.trace_arrival 0 t.trace_len;
    completions = Array.sub t.trace_done 0 t.trace_len;
    verdicts = Array.sub t.trace_verdict 0 t.trace_len;
    epochs = Array.sub t.trace_epoch 0 t.trace_len;
    truths = Array.sub t.trace_truth 0 t.trace_len;
    xs = Array.sub t.trace_x 0 t.trace_len;
  }

(* Classify [batch_x.(0 .. k-1)] into [verdicts.(0 .. k-1)]. Both DNN and
   quantized arms are allocation-free: the quantized one encodes + looks up
   on the per-engine runtime workspace; the reference one drains DNNs
   through [Mlp.predict_into] — the training engine's fused batch GEMM (one
   product per layer) over the first [k] rows of the per-engine MLP
   workspace, verdicts bit-identical to [Mlp.predict_all]. The reference MAT
   families go through the per-sample interpreter. *)
let classify_batch_into t k =
  match (t.runtime, t.rt_ws) with
  | Some rt, Some ws ->
      Runtime.classify_into rt ws ~src:t.batch_x ~n:k ~dst:t.verdicts
  | _ -> (
      match t.ref_dnn with
      | Some (mlp, ws) ->
          Mlp.predict_into mlp ws ~src:t.batch_x ~n:k ~dst:t.verdicts
      | None ->
          for i = 0 to k - 1 do
            t.verdicts.(i) <- Inference.predict t.model_ir t.batch_x.(i)
          done)

(* Drift reaction: retrain + validate; install the challenger between
   batches without touching the queue. Swap atomicity contract: the epoch
   counter, the classifier reference, and its rebuilt workspace (the
   quantized runtime's, or the reference MLP's) all change together,
   strictly between batches — a batch already popped into the drain
   workspaces always completes against the tables it started with, and
   every packet it serves is stamped with the pre-swap epoch. *)
(* Install a validated challenger between batches: retire the serving
   model/runtime to the epoch stacks, rebuild the quantized tables or the
   reference MLP and its workspace, stamp a swap record, and re-baseline
   the monitor. The queue is untouched. *)
let install t ~now ~reason ~incumbent_f1 ~challenger_f1 challenger =
  let drops_before = t.dropped in
  let queue_len = t.q_len in
  t.rev_epoch_models <- t.model_ir :: t.rev_epoch_models;
  t.model_ir <- challenger;
  (match t.config.mode with
  | Reference -> t.ref_dnn <- reference_dnn t.config challenger
  | Quantized ->
      (match t.runtime with
      | Some rt -> t.rev_epoch_runtimes <- rt :: t.rev_epoch_runtimes
      | None -> ());
      let rt =
        match t.updater with
        | Some u ->
            let calibration = Updater.calibration_sample u ~n:256 in
            Runtime.load ~entries_per_feature:t.config.entries_per_feature
              ~calibration challenger
        | None ->
            Runtime.load ~entries_per_feature:t.config.entries_per_feature
              challenger
      in
      t.runtime <- Some rt;
      t.rt_ws <- Some (Runtime.make_workspace rt));
  t.epoch <- t.epoch + 1;
  t.rev_swaps <-
    {
      swap_ts = now;
      swap_reason = reason;
      queue_preserved = queue_len;
      dropped_during_swap = t.dropped - drops_before;
      incumbent_f1;
      challenger_f1;
    }
    :: t.rev_swaps;
  Monitor.rebaseline t.monitor

let maybe_swap t ~now =
  match Monitor.poll_drift t.monitor with
  | None -> ()
  | Some drift -> (
      match (t.research, t.updater) with
      | Some hook, _ -> (
          (* Autopilot: the re-search hook owns the reaction. The incumbent
             keeps serving for as long as the hook runs; a [Keep] leaves it
             installed and just re-arms the detectors — the serving path is
             never worse off than before the drift. *)
          match hook ~now ~drift ~incumbent:t.model_ir with
          | Keep -> Monitor.rearm t.monitor
          | Install { model; incumbent_f1; challenger_f1 } ->
              install t ~now ~reason:drift.Monitor.reason ~incumbent_f1
                ~challenger_f1 model)
      | None, None -> ()  (* monitoring only: the alarm stays latched/logged *)
      | None, Some u -> (
          match
            Updater.try_update u ~incumbent:t.model_ir ~ts:now
              ~reason:drift.Monitor.reason
          with
          | None -> Monitor.rearm t.monitor
          | Some challenger ->
              (* [try_update] records the decision it acted on before it
                 returns, so [last_decision] is always [Some] here. *)
              let incumbent_f1, challenger_f1 =
                match Updater.last_decision u with
                | Some d -> (d.Updater.incumbent_f1, d.Updater.challenger_f1)
                | None -> (Float.nan, Float.nan)
              in
              install t ~now ~reason:drift.Monitor.reason ~incumbent_f1
                ~challenger_f1 challenger))

(* Pop the oldest queued packet. *)
let pop t =
  let i = t.q_head in
  let e = t.queue.(i) in
  t.queue.(i) <- dummy_event;
  t.q_head <- (if i + 1 = Array.length t.queue then 0 else i + 1);
  t.q_len <- t.q_len - 1;
  e

(* Serve one batch of up to [batch_size] queued packets, advancing virtual
   time by one service slot per packet. *)
let serve_one_batch t =
  let k = Int.min t.config.batch_size t.q_len in
  for i = 0 to k - 1 do
    let e = pop t in
    t.batch_ev.(i) <- e;
    t.batch_x.(i) <- e.Stream.features;
    t.batch_truth.(i) <- e.Stream.label
  done;
  classify_batch_into t k;
  let slot = t.slot in
  let depth = t.q_len in
  Monitor.observe_batch t.monitor ~start:t.srv ~slot ~queue_depth:depth ~n:k
    ~features:t.batch_x ~preds:t.verdicts ~truths:t.batch_truth;
  let cap = Array.length t.trace_arrival in
  for i = 0 to Int.min k (cap - t.trace_len) - 1 do
    let e = t.batch_ev.(i) in
    let j = t.trace_len in
    t.trace_arrival.(j) <- e.Stream.ts;
    (* [Monitor.observe_batch]'s completion time for packet [i]. *)
    t.trace_done.(j) <- t.srv +. (float_of_int (i + 1) *. slot);
    t.trace_verdict.(j) <- t.verdicts.(i);
    t.trace_epoch.(j) <- t.epoch;
    t.trace_truth.(j) <- e.Stream.label;
    t.trace_x.(j) <- e.Stream.features;
    t.trace_len <- j + 1
  done;
  t.srv <- t.srv +. (float_of_int k *. slot);
  t.served <- t.served + k;
  ignore (Monitor.advance t.monitor ~now:t.srv t.record : int);
  maybe_swap t ~now:t.srv;
  k

(* Serve whatever the service rate allows before virtual time [now]. *)
let drain_until t ~now =
  let budget =
    int_of_float ((now -. t.srv) *. t.config.service_rate_pps)
  in
  let budget = ref (Int.max 0 budget) in
  let continue = ref true in
  while !continue && !budget > 0 && t.q_len > 0 do
    let saved_batch = Int.min t.config.batch_size !budget in
    if saved_batch < t.config.batch_size && t.q_len > saved_batch
    then begin
      (* Not enough service slots before [now] for a full batch on a deep
         queue — stop and let the next arrival re-open the budget. *)
      continue := false
    end
    else begin
      let k = serve_one_batch t in
      budget := !budget - k
    end
  done;
  (* An idle server does not bank service slots. *)
  if t.q_len = 0 && t.srv < now then t.srv <- now

let drain_all t =
  while t.q_len > 0 do
    ignore (serve_one_batch t)
  done

let offer t (e : Stream.event) =
  t.offered <- t.offered + 1;
  let cap = Array.length t.queue in
  if t.q_len >= cap then t.dropped <- t.dropped + 1
  else begin
    let i = t.q_head + t.q_len in
    t.queue.(if i >= cap then i - cap else i) <- e;
    t.q_len <- t.q_len + 1
  end

let step t (e : Stream.event) =
  drain_until t ~now:e.Stream.ts;
  ignore (Monitor.advance t.monitor ~now:e.Stream.ts t.record : int);
  maybe_swap t ~now:e.Stream.ts;
  offer t e

let finish t =
  drain_all t;
  ignore (Monitor.drain t.monitor t.record : int);
  {
    offered = t.offered;
    served = t.served;
    dropped = t.dropped;
    swaps = List.rev t.rev_swaps;
    drift_events = Monitor.drifts t.monitor;
    windows = Monitor.windows t.monitor;
    final_model = t.model_ir;
    updater_decisions =
      (match t.updater with None -> [] | Some u -> Updater.decisions u);
  }

let run t events =
  let last_ts = ref neg_infinity in
  Array.iter
    (fun (e : Stream.event) ->
      if e.Stream.ts < !last_ts then
        invalid_arg "Engine.run: events out of order";
      last_ts := e.Stream.ts;
      step t e)
    events;
  finish t
