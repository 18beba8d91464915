(** The online serving loop: admission, batched classification, verdicts,
    and zero-downtime model hot-swap.

    Packets enter through a bounded ingress queue (sized the way
    {!Homunculus_backends.Pipeline_sim.config_of_mapping} sizes a mapped
    pipeline's buffer) and are drained at a fixed service rate in
    classification batches, all in the trace's virtual time — a packet
    arriving while the queue is full is dropped and counted, exactly the
    overflow semantics of {!Homunculus_backends.Pipeline_sim}. Verdicts
    flow into a {!Monitor}; once labels arrive, labeled events feed an
    optional {!Updater}. When the monitor's drift detector fires, the
    engine asks the updater for a validated challenger and, if one clears
    the margin, installs it {e between} service batches: the classifier
    reference (and, in quantized mode, the rebuilt
    {!Homunculus_backends.Runtime} tables) is replaced atomically while
    every queued packet stays queued — Taurus's runtime weight-update
    semantics, where the pipeline keeps accepting traffic mid-update. Each
    swap records the queue depth it preserved and the drops it caused
    (always 0 by construction, asserted in the record). *)

type mode =
  | Reference  (** floating-point {!Homunculus_backends.Inference} *)
  | Quantized
      (** fixed-point MAT execution via {!Homunculus_backends.Runtime};
          requires a MAT-mappable model (not a raw DNN) *)

type config = {
  queue_capacity : int;  (** ingress buffer, packets *)
  batch_size : int;  (** classification batch *)
  service_rate_pps : float;  (** drained packets per virtual second *)
  mode : mode;
  entries_per_feature : int;  (** quantized table granularity *)
  trace_capacity : int;
      (** record per-packet service records for the first this-many served
          packets (arrival/completion time, verdict, epoch, truth,
          features) into preallocated buffers; 0 (the default) disables
          tracing. The loadgen and the differential replay oracle read the
          trace back through {!trace}. *)
}

val default_config : config
(** Queue 64 (the {!Homunculus_backends.Pipeline_sim} default), batches of
    32, 200 pkt/s against trace-scale timestamps, [Reference] mode,
    64 entries/feature, no trace. *)

type swap = {
  swap_ts : float;  (** virtual time of the swap *)
  swap_reason : string;  (** drift reason that triggered it *)
  queue_preserved : int;  (** packets in flight, kept across the swap *)
  dropped_during_swap : int;  (** 0: the swap never pauses admission *)
  incumbent_f1 : float;  (** holdout scores from the updater's validation *)
  challenger_f1 : float;
}

type summary = {
  offered : int;
  served : int;
  dropped : int;
  swaps : swap list;  (** oldest first *)
  drift_events : Monitor.drift list;
  windows : Monitor.window list;
  final_model : Homunculus_backends.Model_ir.t;
  updater_decisions : Updater.decision list;  (** empty without an updater *)
}

type reaction =
  | Keep
      (** the incumbent stays installed; the monitor is re-armed (its
          cooldown still applies) *)
  | Install of {
      model : Homunculus_backends.Model_ir.t;
      incumbent_f1 : float;  (** validation scores recorded in the swap *)
      challenger_f1 : float;
    }
      (** hot-swap [model] in between service batches, exactly like an
          updater-validated challenger *)

type research_hook =
  now:float -> drift:Monitor.drift -> incumbent:Homunculus_backends.Model_ir.t ->
  reaction
(** The autopilot's entry point: called (between service batches, on the
    serving thread, in virtual time [now]) when a drift alarm is consumed,
    with the currently serving model. Whatever the hook does — including a
    long re-search — the incumbent keeps serving until the returned
    [Install] lands; an exception propagates out of {!step}/{!run} (that is
    how a simulated {!Homunculus_resilience.Faultplan.Killed} crash reaches
    the driver). *)

type t

val create :
  ?config:config ->
  model:Homunculus_backends.Model_ir.t ->
  monitor:Monitor.t ->
  ?updater:Updater.t ->
  ?research:research_hook ->
  unit ->
  t
(** When [research] is present it owns the drift reaction: the updater (if
    any) still buffers labeled traffic and supplies quantization
    calibration, but {!Updater.try_update} is never called — challengers
    come from the hook.
    @raise Invalid_argument on a non-positive queue, batch, or rate — or,
    in [Quantized] mode, on a model {!Homunculus_backends.Runtime.load}
    rejects. *)

val model : t -> Homunculus_backends.Model_ir.t
(** The classifier currently serving (changes after a hot-swap). *)

val current_runtime : t -> Homunculus_backends.Runtime.t option
(** The fixed-point tables currently serving ([Some] iff [Quantized] mode;
    rebuilt on every hot-swap). *)

val epoch : t -> int
(** How many hot-swaps have been installed: packets served before the
    first swap carry epoch 0, packets after the [n]th swap epoch [n]. The
    epoch, the classifier, and (in quantized mode) the runtime tables and
    their workspace change together, strictly between service batches — a
    batch in flight always completes against the tables it started with. *)

val epoch_runtimes : t -> Homunculus_backends.Runtime.t array
(** Quantized mode: every table generation that ever served, indexed by
    epoch (length [epoch t + 1]) — the replay oracle re-runs each traced
    packet against [epoch_runtimes.(epochs.(i))]. [[||]] in Reference
    mode. *)

val epoch_models : t -> Homunculus_backends.Model_ir.t array
(** Every classifier generation that ever served, indexed by epoch. *)

type trace = {
  n : int;  (** recorded packets (≤ served, capped by [trace_capacity]) *)
  arrivals : float array;  (** per packet: virtual arrival time *)
  completions : float array;  (** virtual service-completion time *)
  verdicts : int array;  (** class the engine reported *)
  epochs : int array;  (** table/model generation that served it *)
  truths : int array;  (** delayed ground-truth label *)
  xs : float array array;  (** the feature vector classified (not copied) *)
}

val trace : t -> trace
(** Copy out the per-packet service records captured so far (first
    [trace_capacity] served packets, in service order). Service latency of
    packet [i] is [completions.(i) -. arrivals.(i)]. *)

val run : t -> Stream.event array -> summary
(** Replay the whole event stream through the loop and drain everything
    still queued or awaiting labels at the end. Deterministic: virtual time
    comes from event timestamps, randomness only from the seeded RNGs
    handed to the stream and updater. @raise Invalid_argument on
    out-of-order events. *)

(** {2 Incremental driving}

    [run] is [step] folded over the events plus [finish]; open-loop load
    generators drive the same three entry points directly so they can
    wrap wall-clock measurement around the drain. *)

val step : t -> Stream.event -> unit
(** Advance virtual time to the event's arrival (draining whatever the
    service rate allows), then admit the event — or drop it if the ingress
    queue is full. Callers must feed events in ascending [ts] order;
    unlike {!run}, [step] does not re-check. *)

val finish : t -> summary
(** Drain everything still queued, flush pending labels, and summarize. *)
