(** Serialize a serving run as JSON — the timeline a dashboard or a
    regression harness would consume, via {!Homunculus_util.Json} (no
    external dependencies, like the rest of the system's interchange). *)

val percentile : float -> float array -> float
(** [percentile p xs] — nearest-rank percentile (the SLO convention):
    sort ascending, take element [ceil (p/100 * n)] (1-based; [p = 0]
    gives the minimum, [p = 100] the maximum). Always returns a value some
    sample actually took, never an interpolation between two samples —
    unlike {!Homunculus_util.Stats.percentile}. The input is not modified.
    @raise Invalid_argument on an empty sample or [p] outside [0, 100]. *)

val latency_to_json : float array -> Homunculus_util.Json.t
(** Latency-sample summary: count, mean, and nearest-rank p50 / p99 /
    p999 / max, in seconds. *)

val summary_to_json : Engine.summary -> Homunculus_util.Json.t
(** One object: run totals plus the full windows / drifts / swaps /
    decisions lists. *)

val to_jsonl : Engine.summary -> string
(** The run as a virtual-time-ordered sequence of records, one compact JSON
    object per line, each tagged with an ["event"] member (["window"],
    ["drift"], ["swap"], or ["decision"]). *)

val write_jsonl : path:string -> Engine.summary -> unit
