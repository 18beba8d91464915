module Rng = Homunculus_util.Rng
module Model_ir = Homunculus_backends.Model_ir
module Flowsim = Homunculus_netdata.Flowsim
module Botnet = Homunculus_netdata.Botnet

let shift_s = 600.

let drift_schedule rng ~renumber_from phase_a phase_b =
  let phase_b = Stream.renumber ~from:renumber_from (Stream.shift_botnet phase_b) in
  let sched_a = Array.map (fun f -> (Rng.float rng shift_s, f)) phase_a in
  let sched_b = Array.map (fun f -> (shift_s +. Rng.float rng shift_s, f)) phase_b in
  Stream.events_scheduled (Array.append sched_a sched_b)

(* One RNG seeded [seed]: a model bootstrapped on [n_train] P2P flows, and
   the generator of the flows that follow. *)
let bootstrapped ?algorithm ~name ~max_packets ~seed n_train =
  let rng = Rng.create seed in
  let generate n =
    Flowsim.generate rng ~mix:{ Flowsim.n_flows = n; botnet_frac = 0.5; max_packets } ()
  in
  let model =
    Updater.bootstrap (Rng.split rng) ?algorithm ~bins:Botnet.Fused ~name
      (generate n_train)
  in
  (rng, model, generate)

let drift_scenario ?algorithm ~name ~seed ~n_train ~n_serve () =
  let rng, model, generate =
    bootstrapped ?algorithm ~name ~max_packets:200 ~seed n_train
  in
  let phase_a = generate n_serve in
  let phase_b = generate n_serve in
  (model, drift_schedule rng ~renumber_from:n_serve phase_a phase_b)

let botnet_payload ~seed ~n_train ~n_serve =
  let rng, model, generate =
    bootstrapped ~algorithm:`Svm ~name:"botnet_detection" ~max_packets:160 ~seed
      n_train
  in
  let flows = generate n_serve in
  (model, Stream.events (Rng.split rng) flows)

let dataset_payload ~seed dataset =
  let rng = Rng.create seed in
  let name, (train, test) =
    match dataset with
    | `Nslkdd -> ("nslkdd", Homunculus_netdata.Nslkdd.generate_split (Rng.split rng) ())
    | `Iot -> ("iot", Homunculus_netdata.Iot.generate_split (Rng.split rng) ())
  in
  let model = Model_ir.of_svm ~name (Homunculus_ml.Svm.fit (Rng.split rng) train) in
  let xs = test.Homunculus_ml.Dataset.x in
  ( model,
    Stream.of_samples ~app:name ~labels:test.Homunculus_ml.Dataset.y
      ~ts:(Array.init (Array.length xs) float_of_int)
      xs )

let mean_f1 ?(before = infinity) ?(after = neg_infinity) windows =
  let keep w = w.Monitor.t_end < before && w.Monitor.t_start > after in
  match List.filter_map (fun w -> if keep w then Some w.Monitor.f1 else None) windows with
  | [] -> 0.
  | f1s -> List.fold_left ( +. ) 0. f1s /. float_of_int (List.length f1s)

type updates =
  | Frozen
  | Retrain of Rng.t
  | Research of Rng.t * (Updater.t -> Engine.research_hook)

type config = {
  engine : Engine.config;
  monitor : Monitor.config;
  updater : Updater.config;
  forced_drifts : int list;
  updates : updates;
}

let default_config =
  {
    engine = Engine.default_config;
    monitor = Monitor.default_config;
    updater = Updater.default_config;
    forced_drifts = [];
    updates = Frozen;
  }

let create ?(config = default_config) model =
  let n_classes = Model_ir.output_dim model in
  let monitor = Monitor.create ~config:config.monitor ~n_classes () in
  List.iter (fun window -> Monitor.force_drift_at monitor ~window) config.forced_drifts;
  let updater rng =
    Updater.create rng ~config:config.updater
      ~n_features:(Model_ir.input_dim model) ~n_classes ()
  in
  let updater, research =
    match config.updates with
    | Frozen -> (None, None)
    | Retrain rng -> (Some (updater rng), None)
    | Research (rng, hook) ->
        let updater = updater rng in
        (Some updater, Some (hook updater))
  in
  Engine.create ~config:config.engine ~model ~monitor ?updater ?research ()

let sweep ?(engine = Engine.default_config) ~arrival_seed ~label model plans base =
  List.map
    (fun (rate, process) ->
      let g = Loadgen.generator (Rng.create arrival_seed) ~rate ~process in
      let events = Loadgen.retime g base in
      let config =
        {
          default_config with
          engine = { engine with Engine.trace_capacity = Array.length events };
        }
      in
      let engine = create ~config model in
      let label =
        Printf.sprintf "%s_%s_%gpps" label (Loadgen.process_name process) rate
      in
      (engine, Loadgen.drive ~label engine ~rate ~process events))
    plans
