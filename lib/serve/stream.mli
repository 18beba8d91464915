(** Time-ordered per-packet event source for the online serving loop.

    A compiled artifact classifies *partial* flowmarkers — per-flow
    histograms that grow one packet at a time (paper §5.1.1). This module
    turns a flow population ({!Homunculus_netdata.Flowsim} output or a
    {!Homunculus_netdata.Trace} loaded from disk) into the packet arrival
    sequence a switch would see: flows are staggered over a virtual-time
    window, their packets are merge-sorted into one timeline, and each
    packet carries the feature vector the data plane would have accumulated
    for its flow at that instant. Per-flow state lives in a fixed-capacity
    {!Homunculus_netdata.Flow_table}, so hash collisions evict markers
    mid-flow exactly as a register file would. Everything is driven by a
    seeded {!Homunculus_util.Rng} and packet timestamps — no wall clock. *)

type event = {
  ts : float;  (** absolute virtual arrival time, seconds *)
  flow_id : int;
  app : string;  (** generating application *)
  label : int;  (** delayed ground truth: 0 = benign, 1 = botnet *)
  packet_index : int;  (** 1-based position within the flow *)
  features : float array;
      (** the flow's partial flowmarker after this packet: normalized
          packet-length histogram concatenated with the normalized
          inter-arrival histogram, matching
          {!Homunculus_netdata.Botnet.flow_features} *)
}

type config = {
  bins : Homunculus_netdata.Botnet.bins;  (** flowmarker binning *)
  min_packets : int;
      (** emit events only from this packet index on; earlier packets still
          update flow state but produce no classification work (a deployment
          debounces near-empty markers) *)
  sram_bytes : int;
      (** flow-state register budget backing the {!Flow_table} *)
}

val default_config : config
(** [Fused] bins (30 features), [min_packets = 4], 64 KiB of flow state. *)

val events_scheduled :
  ?config:config -> (float * Homunculus_netdata.Flow.t) array -> event array
(** [(start_offset, flow)] pairs: each flow's packets are shifted by its
    start offset and all packets are merged into one ascending timeline
    (ties broken by flow id). Flow ids should be unique — the flow table and
    inter-arrival tracking key on them. @raise Invalid_argument on a NaN,
    infinite or negative start offset. *)

val events :
  Homunculus_util.Rng.t ->
  ?config:config ->
  ?start_window_s:float ->
  Homunculus_netdata.Flow.t array ->
  event array
(** Draw each flow's start offset uniformly from [\[0, start_window_s)]
    (default 600 s) and build the timeline. *)

val of_samples :
  ?app:string ->
  ?labels:int array ->
  ts:float array ->
  float array array ->
  event array
(** Wrap pre-built feature vectors (dataset rows, e.g.
    {!Homunculus_netdata.Nslkdd} / {!Homunculus_netdata.Iot} draws) as a
    packet timeline: event [i] arrives at [ts.(i)] carrying [xs.(i)]
    (not copied) with flow id [i] and ground truth [labels.(i)] (0 when
    omitted). Timestamps are taken as given — pass an ascending vector
    (e.g. from an open-loop arrival process) or {!Engine.run} will
    reject the result. @raise Invalid_argument on length mismatches. *)

val shift_botnet :
  ?size_scale:float ->
  ?gap_scale:float ->
  Homunculus_netdata.Flow.t array ->
  Homunculus_netdata.Flow.t array
(** Concept-drift injector: rewrite every botnet flow as if the botmaster
    changed the C&C protocol — packet sizes scaled by [size_scale]
    (default 6, small keepalives become mid-size messages) and timestamps
    by [gap_scale] (default 0.1, long command gaps shrink toward benign
    pacing). Benign flows and all labels are untouched, so the shifted
    population is still separable — just not where the old model learned
    the boundary. Sizes are clamped to [40, 1500] wire bytes. *)

val renumber : from:int -> Homunculus_netdata.Flow.t array -> Homunculus_netdata.Flow.t array
(** Fresh flow ids [from, from+1, ...] — use when concatenating populations
    into one trace so flow-state keys stay distinct. *)
