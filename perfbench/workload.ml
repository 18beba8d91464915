(* The benchmark's workloads and the inputs each one generates from its
   seed. A workload is one user session: compile a model spec for a target,
   then serve the winner on generated packets.

   The compile spec (training and test splits) is the same for every seed:
   the search's cost and its winner depend on the spec's data, and a
   winner that changes with the seed changes what every later phase costs
   (the served model's architecture sets the drain's per-packet work). The
   seed draws everything the session is then exposed to: the served
   traffic, its arrival times, and the held-out set the winner is scored
   on. *)

open Homunculus_alchemy
open Homunculus_serve
module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset
module Netdata = Homunculus_netdata

type t = {
  name : string;
  platform : Platform.t;
  algorithms : Model_spec.algorithm list;
  n_init : int;  (** random warm-up evaluations per algorithm *)
  n_iter : int;  (** guided evaluations, split across algorithms *)
  mode : Engine.mode;
  process : Loadgen.process;
  load : float;  (** offered rate / service rate *)
  forced_drifts : int list;
      (** monitor windows at which a drift alarm is forced in the swap pass;
          empty when the traffic itself drifts *)
  n_classes : int;
}

let fixed_seed = 2023

let dnn_taurus =
  {
    name = "dnn-taurus";
    platform = Platform.taurus ();
    algorithms = [ Model_spec.Dnn ];
    n_init = 8;
    n_iter = 2;
    mode = Engine.Reference;
    process = Loadgen.Poisson;
    load = 1.2;
    forced_drifts = [ 6; 12; 18; 24 ];
    n_classes = 2;
  }

let botnet_drift =
  {
    name = "botnet-drift";
    platform = Platform.tofino ();
    algorithms = [ Model_spec.Svm ];
    n_init = 24;
    n_iter = 6;
    mode = Engine.Quantized;
    process = Loadgen.Bursty { mean_burst = 48; peak_factor = 4. };
    load = 0.9;
    forced_drifts = [];
    n_classes = 2;
  }

let all = [ dnn_taurus; botnet_drift ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Flow populations become per-packet flowmarker samples the way the
   serving stream sees them: each flow's partial marker at a few prefix
   lengths plus its full-flow marker. *)
let bins = Netdata.Botnet.Fused

let flow_mix n = { Netdata.Flowsim.n_flows = n; botnet_frac = 0.5; max_packets = 200 }

let flowmarker_dataset flows =
  let rows =
    Array.to_list flows
    |> List.concat_map (fun f ->
           let label = Netdata.Flow.label_to_int f.Netdata.Flow.label in
           let prefixes =
             List.filter (fun k -> k <= Netdata.Flow.n_packets f) [ 4; 8; 16; 32; 64 ]
           in
           List.map
             (fun k -> (Netdata.Botnet.flow_features bins f ~first_packets:k (), label))
             prefixes
           @ [ (Netdata.Botnet.flow_features bins f (), label) ])
  in
  Dataset.create
    ~feature_names:(Netdata.Botnet.feature_names bins)
    ~x:(Array.of_list (List.map fst rows))
    ~y:(Array.of_list (List.map snd rows))
    ~n_classes:2 ()

(* The compile spec's (train, test) splits. *)
let spec_splits w =
  let rng = Rng.create fixed_seed in
  match w.name with
  | "dnn-taurus" -> Netdata.Nslkdd.generate_split rng ~n_train:1500 ~n_test:1500 ()
  | _ ->
      let train = flowmarker_dataset (Netdata.Flowsim.generate rng ~mix:(flow_mix 800) ()) in
      (train, flowmarker_dataset (Netdata.Flowsim.generate rng ~mix:(flow_mix 300) ()))

(* A fresh held-out draw from the spec's distribution. *)
let holdout w rng =
  match w.name with
  | "dnn-taurus" -> Netdata.Nslkdd.generate rng ~n:3000 ()
  | _ -> flowmarker_dataset (Netdata.Flowsim.generate rng ~mix:(flow_mix 300) ())

(* Served traffic before open-loop retiming. Dataset workloads serve fresh
   draws as one packet each; botnet-drift serves a flowmarker stream whose
   botnet flows change protocol halfway through. *)
let traffic w rng ~packets =
  let of_dataset (d : Dataset.t) =
    Stream.of_samples ~app:w.name ~labels:d.Dataset.y
      ~ts:(Array.init (Array.length d.Dataset.x) float_of_int)
      d.Dataset.x
  in
  match w.name with
  | "dnn-taurus" -> of_dataset (Netdata.Nslkdd.generate rng ~n:packets ())
  | _ ->
      (* ~95 served packets per flow at this mix *)
      let n = Stdlib.max 2 (packets / 190) in
      let before = Netdata.Flowsim.generate rng ~mix:(flow_mix n) () in
      let after =
        Stream.renumber ~from:n
          (Stream.shift_botnet (Netdata.Flowsim.generate rng ~mix:(flow_mix n) ()))
      in
      let start offset f = (offset +. Rng.float rng 600., f) in
      Stream.events_scheduled
        (Array.append (Array.map (start 0.) before) (Array.map (start 600.) after))

type inputs = {
  spec : Model_spec.t;
  holdout : Dataset.t;  (** the winner's held-out scoring set *)
  events : Stream.event array;  (** retimed, ascending *)
  rate : float;  (** offered packets per virtual second *)
}

let service_rate = Engine.default_config.Engine.service_rate_pps

(* Everything a session needs, built from the seed alone: the same seed
   gives bit-identical inputs. [on_traffic] sees the traffic synthesis's
   event count and duration. *)
let inputs ?(on_traffic = fun ~events:_ ~seconds:_ -> ()) w ~seed ~packets =
  let rng = Rng.create seed in
  let holdout_rng = Rng.split rng and traffic_rng = Rng.split rng in
  let arrival_rng = Rng.split rng in
  let train, test = spec_splits w in
  let holdout = holdout w holdout_rng in
  let spec =
    Model_spec.make ~name:w.name ~metric:Model_spec.F1 ~algorithms:w.algorithms
      ~loader:(fun () -> Model_spec.data ~train ~test)
      ()
  in
  ignore (Model_spec.load spec : Model_spec.data);
  let t0 = Unix.gettimeofday () in
  let base = traffic w traffic_rng ~packets in
  on_traffic ~events:(Array.length base) ~seconds:(Unix.gettimeofday () -. t0);
  let rate = w.load *. service_rate in
  let events =
    Loadgen.retime (Loadgen.generator arrival_rng ~rate ~process:w.process) base
  in
  { spec; holdout; events; rate }
