(** Open-loop load generation for the serving engine — the
    [simple-packet-gen] role in the NuevoMatchUP-style measurement setup.

    Arrivals come from a seeded stochastic process at a target long-run
    rate, {e independent of service progress} (open loop): a saturated
    engine sees the queue fill and drops packets rather than back-pressure
    the generator, which is what makes the measured drop rate and tail
    latency honest. Virtual arrival/service time gives deterministic
    latency percentiles; the wall clock around the drain gives sustained
    inferences per second on the host. *)

type process =
  | Poisson  (** i.i.d. Exp(rate) inter-arrival gaps *)
  | Bursty of { mean_burst : int; peak_factor : float }
      (** on/off: bursts of mean [mean_burst] packets (uniform on
          [1, 2*mean_burst-1]) arriving at [peak_factor * rate], separated
          by off gaps sized so the long-run rate is still exactly the
          target. [peak_factor >= 1.]; both [1] degenerate to Poisson. *)

type gen
(** Stateful arrival-time generator. Deterministic for a fixed seed, and
    chunk-invariant: drawing [n] arrivals in any split of calls yields the
    bit-identical sequence as one call, so a loadgen that batches its
    synthesis cannot perturb the workload. *)

val process_name : process -> string
(** Short stable identifier, e.g. ["poisson"], ["bursty_b8_p4"]. *)

val generator : Homunculus_util.Rng.t -> rate:float -> process:process -> gen
(** @raise Invalid_argument unless [rate > 0], [mean_burst >= 1] and
    [peak_factor >= 1]. *)

val arrivals : gen -> n:int -> float array
(** The next [n] arrival timestamps (non-decreasing; the first draw starts
    from virtual time 0). *)

val retime : gen -> Stream.event array -> Stream.event array
(** Re-stamp a feature-carrying trace with open-loop arrival times, in
    order: event [i] keeps its features/label and arrives at the
    generator's [i]th arrival. This is how dataset- or flow-derived
    payloads are pushed through the engine at a controlled rate. *)

type result = {
  label : string;
  rate : float;  (** target offered rate, packets per virtual second *)
  process : process;
  offered : int;
  served : int;
  dropped : int;
  wall_s : float;  (** host wall-clock spent inside the replay *)
  sustained_ips : float;  (** served / wall_s: sustained inferences/sec *)
  latencies : float array;
      (** virtual-time service latency (completion - arrival) per traced
          packet, in service order — deterministic for a fixed seed *)
  summary : Engine.summary;
}

val drive :
  ?label:string ->
  Engine.t ->
  rate:float ->
  process:process ->
  Stream.event array ->
  result
(** Feed the (ascending-timestamp) events through {!Engine.step} +
    {!Engine.finish}, timing the whole replay on the wall clock. Latency
    percentiles need the engine created with a positive
    [trace_capacity]. [rate]/[process] are recorded, not re-derived. *)

val result_to_json : result -> Homunculus_util.Json.t
(** The BENCH_serve.json record: offered/served/dropped counts, drop
    rate, wall time, sustained inferences/sec, and the nearest-rank
    latency summary ({!Report.latency_to_json}). *)

val p99 : result -> float
(** Nearest-rank p99 service latency in virtual seconds — the SLO-gate
    statistic ([nan] when nothing was traced). *)
