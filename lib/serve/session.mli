(** One serving session: the drift scenario, the wired engine and the
    open-loop loadgen sweep that [homc serve], [homc loadgen], the serve
    and loadgen benches and the serving tests all run. The data plane is
    one program the control plane updates; {!create} is the one place
    that wires it. *)

(** {2 Workloads} *)

val shift_s : float
(** The drift scenario's phase length [T] (600 virtual seconds): the
    traffic shift lands at [T]. *)

val drift_schedule :
  Homunculus_util.Rng.t -> renumber_from:int -> Homunculus_netdata.Flow.t array ->
  Homunculus_netdata.Flow.t array -> Stream.event array
(** [drift_schedule rng ~renumber_from phase_a phase_b]: phase B's botnet
    flows re-tooled ({!Stream.shift_botnet}) and renumbered from
    [renumber_from]; start offsets drawn from [rng], first one per phase-A
    flow in [\[0, T)], then one per phase-B flow in [\[T, 2T)]. *)

val drift_scenario :
  ?algorithm:[ `Dnn | `Svm | `Tree ] -> name:string -> seed:int -> n_train:int ->
  n_serve:int -> unit -> Homunculus_backends.Model_ir.t * Stream.event array
(** From one RNG seeded [seed]: a model bootstrapped
    ({!Updater.bootstrap}) on [n_train] P2P flows, then two populations of
    [n_serve] flows (half botnet, at most 200 packets) laid out by
    {!drift_schedule}. *)

val botnet_payload :
  seed:int -> n_train:int -> n_serve:int ->
  Homunculus_backends.Model_ir.t * Stream.event array
(** From one RNG seeded [seed]: an SVM bootstrapped on [n_train] P2P
    flows and the {!Stream.events} trace of [n_serve] more (half botnet,
    at most 160 packets) — a loadgen base trace. *)

val dataset_payload :
  seed:int -> [ `Nslkdd | `Iot ] -> Homunculus_backends.Model_ir.t * Stream.event array
(** From one RNG seeded [seed]: an SVM fit on the dataset's train split,
    and its test split as a trace one event per second, for the loadgen to
    re-time. *)

val mean_f1 : ?before:float -> ?after:float -> Monitor.window list -> float
(** Mean F1 of the windows that end before [before] and start after
    [after] (0 when none do): the scenario's before/after-shift readout. *)

(** {2 The wired engine} *)

type updates =
  | Frozen  (** monitor only: never retrain or hot-swap *)
  | Retrain of Homunculus_util.Rng.t
      (** an updater seeded from this RNG retrains on each drift alarm *)
  | Research of Homunculus_util.Rng.t * (Updater.t -> Engine.research_hook)
      (** the updater only buffers labeled traffic; the hook built from it
          owns the drift reaction *)

type config = {
  engine : Engine.config;
  monitor : Monitor.config;
  updater : Updater.config;  (** unused when [Frozen] *)
  forced_drifts : int list;  (** windows whose drift alarm is forced *)
  updates : updates;
}

val default_config : config
(** Every component's default config, no forced alarm, [Frozen]. *)

val create : ?config:config -> Homunculus_backends.Model_ir.t -> Engine.t
(** The monitor, the updater (unless [Frozen]) and the engine serving the
    model, with feature and class counts taken from the model.
    @raise Invalid_argument where the components' [create]s do. *)

(** {2 The loadgen sweep} *)

val sweep :
  ?engine:Engine.config -> arrival_seed:int -> label:string ->
  Homunculus_backends.Model_ir.t -> (float * Loadgen.process) list ->
  Stream.event array -> (Engine.t * Loadgen.result) list
(** One run per [(rate, process)], in order: the base trace re-stamped by a
    generator seeded [arrival_seed] afresh, served by a [Frozen] session
    on [engine] (default {!Engine.default_config}) that traces every
    event, labeled ["<label>_<process>_<rate>pps"]. *)
