(** Crash-safe search journal: an append-only JSONL write-ahead log of
    evaluation outcomes, and the replay cache that turns it back into a
    deterministic resume.

    Each line is [{"sum": "<fnv1a64 hex>", "rec": {...}}] where the checksum
    covers the compact rendering of the record object. Appends are fsync'd
    under a mutex, so a crash leaves at worst one truncated final line —
    which the loader detects (parse failure or checksum mismatch) and drops.

    Resume does not trust the journal's ordering: the optimizer is re-driven
    with its original seed, and each proposal it re-derives is looked up by
    (scope, canonical configuration key). Cache hits return the recorded
    evaluation without re-running training, so the rebuilt
    {!Homunculus_bo.History.t} is bit-for-bit the one an uninterrupted
    search would have produced. *)

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
val record_of_json : Json.t -> record
(** @raise Invalid_argument on malformed documents. *)

val line_of_record : record -> string
(** One checksummed JSONL line (no trailing newline). *)

val record_of_line : string -> record option
(** [None] for corrupt, truncated, or checksum-mismatched lines. *)

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

val appended : t -> int
val path : t -> string

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
val loaded : replay -> int
(** Valid records absorbed, superseded ones included. *)

val dropped : replay -> int

val merge : replay list -> replay
(** Deterministic union: on key conflicts, tables later in the list win
    (the cross-file analogue of later-record-wins). [loaded]/[dropped]
    counters are summed. *)

val records : string -> record list
(** All valid evaluation records in a journal file after later-record-wins
    dedup, sorted by (scope, index) — for inspection and tests. *)
