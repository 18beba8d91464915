(** Crash-safe search journal: an append-only JSONL write-ahead log of
    evaluation outcomes and search winners, and the replay cache that turns
    it back into a deterministic resume.

    A journal holds two kinds of line:
    - an {e evaluation record}, [{"sum": "<fnv1a64 hex>", "rec": {...}}],
      one per finished candidate evaluation;
    - a {e model line}, [{"sum": "<fnv1a64 hex>", "model": {"scope",
      "config", "payload"}}], one per search scope, holding that scope's
      winning model as a payload this layer does not interpret (the
      compiler owns its schema).

    The checksum covers the compact rendering of the body object. Appends
    are fsync'd under a mutex, so a crash leaves at worst one truncated
    final line — which the loader detects (parse failure or checksum
    mismatch) and drops. Builds that predate model lines drop them the same
    way, since they carry no ["rec"] member.

    Resume does not trust the journal's ordering: the optimizer is re-driven
    with its original seed, and each proposal it re-derives is looked up by
    (scope, canonical configuration key). Cache hits return the recorded
    evaluation without re-running training, so the rebuilt
    {!Homunculus_bo.History.t} is bit-for-bit the one an uninterrupted
    search would have produced; the scope's model line, under the same key,
    spares the winner its retrain.

    Counting rules: model lines are not evaluation records. {!appended},
    {!loaded}, {!read} and {!records} see evaluation records only, so a
    kill threshold fires at the same record and a warm start's proposal
    arithmetic is unchanged. {!merge} drops model lines. *)

module Json = Homunculus_util.Json
module Bo = Homunculus_bo

type failure = { failure_class : string; message : string; retries : int }
(** Terminal failure annotation: classification code ([divergence],
    [backend], [budget]), human-readable message, and how many retries were
    burned before giving up. *)

type kind = Exact
(** Every record is an evaluation outcome, and the writer no longer emits a
    kind member; the type stays for code that builds records (perfbench's
    traced search). The loader reads lines without the member, and the
    ["exact"] and ["predicted"] lines of older journals, as [Exact]: a
    predicted line was a learned pre-filter's skip and replays as the
    infeasible entry it recorded. The checksum covers the parsed line, not
    the re-serialized record, so old lines still verify. A line with any
    other kind is not an evaluation and is dropped. *)

type record = {
  scope : string;  (** search scope, e.g. ["spec-name/dnn"] *)
  index : int;  (** proposal-order candidate index within the scope *)
  config : Bo.Config.t;
  objective : float;
  feasible : bool;
  pruned : bool;
  metadata : (string * float) list;
  failure : failure option;
  kind : kind;
}

val record_to_json : record -> Json.t

val line_of_record : record -> string
(** One checksummed JSONL line (no trailing newline). *)

val record_of_line : string -> record option
(** [None] for corrupt, truncated, or checksum-mismatched lines, and for
    model lines. *)

(** {1 Append handle} *)

type t

val open_ : ?fsync_every:int -> string -> t
(** Open (creating if absent) for fsync'd appends at end of file.

    [fsync_every] (default 1) batches fsyncs: the handle syncs once per that
    many appends instead of after every record (group commit), plus on
    {!sync} and {!close}. Bounded-loss durability contract: every line is
    still written whole, so a crash loses at most the last [fsync_every - 1]
    unsynced records and one torn tail line — replay drops the torn line via
    its checksum and simply re-evaluates anything missing.
    @raise Invalid_argument when [fsync_every < 1]. *)

val append : t -> record -> int
(** Write one record (durable immediately at [fsync_every = 1], durable by
    the next group commit otherwise); returns the handle-local record count
    (lines inherited from a previous run are not counted — kill thresholds
    measure the current run's progress). Thread-safe. *)

val sync : t -> unit
(** Flush any unsynced group-committed appends to disk now. *)

val append_model : t -> scope:string -> config:Bo.Config.t -> Json.t -> unit
(** Write one model line: [payload] is the winning model of the search
    [scope], whose winner is [config]. Durable like {!append}, but not an
    evaluation record: {!appended} does not count it. Thread-safe. *)

val appended : t -> int
(** Evaluation records appended through this handle. *)

val close : t -> unit
(** Flush pending appends, then close the descriptor. *)

(** {1 Replay cache} *)

type replay

val load : string -> replay
(** Read a journal file (missing file = empty cache), dropping invalid
    lines. Later records for the same (scope, config) supersede earlier
    ones. *)

val read : string -> record list * replay
(** Both views of a journal from a single streaming pass over the file: the
    raw valid records in file order (duplicates preserved) and the replay
    table {!load} would have built. *)

val find : replay -> scope:string -> config:Bo.Config.t -> record option

val find_model : replay -> scope:string -> config:Bo.Config.t -> Json.t option
(** The payload of the last valid model line for (scope, config). *)

val loaded : replay -> int
(** Valid evaluation records absorbed, superseded ones included. *)

val dropped : replay -> int
(** Invalid lines skipped (torn, corrupt, or checksum-mismatched), of
    either kind. *)

val merge : replay list -> replay
(** Deterministic union: on key conflicts, tables later in the list win
    (the cross-file analogue of later-record-wins). [loaded]/[dropped]
    counters are summed. Model lines are dropped: journals merged for a
    warm start come from searches on different data, so no recorded winner
    carries over. *)

val records : string -> record list
(** All valid evaluation records in a journal file after later-record-wins
    dedup, sorted by (scope, index) — for inspection and tests. *)
