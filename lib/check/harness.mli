(** The conformance driver: generate cases, compare every applicable backend
    against the floating-point reference, check case invariants, shrink any
    failure, and persist it as a JSON reproducer artifact. *)

type options = {
  seed : int;
  trials : int;
  backends : Oracle.backend list;
  families : Gen.family list;
  artifact_dir : string option;  (** where shrunk reproducers are written *)
  max_shrink : int;  (** shrinker predicate-evaluation budget per failure *)
}

val default_options : options
(** seed 42, 100 trials, every backend, every family, no artifact dir,
    shrink budget 400. *)

type stats = {
  backend : Oracle.backend;
  cases : int;  (** cases this backend was applicable to *)
  samples : int;
  agreed : int;
  excused : int;
  violation_count : int;
}

type failure = {
  trial : int;
  family : Gen.family;
  kind : string;  (** ["divergence"] or ["invariant"] *)
  failed_backend : Oracle.backend option;  (** [None] for invariants *)
  detail : string;
  case : Case.t;  (** already shrunk *)
  artifact : string option;  (** path, when [artifact_dir] was given *)
}

type report = {
  run_seed : int;
  run_trials : int;
  stats : stats list;
  failures : failure list;
}

val run : options -> report

val ok : report -> bool
(** No failures. *)

val render : report -> string
(** Human-readable multi-line summary: a per-backend agreement table
    followed by one block per failure. *)

type replay_outcome = {
  replay_case : Case.t;
  comparisons : Oracle.comparison list;
  invariant_failures : Oracle.invariant_failure list;
}

type artifact = { artifact_case : Case.t; artifact_backends : Oracle.backend list }

val load_artifact : path:string -> artifact
(** Load a persisted artifact: either a bare case document or a failure
    artifact with a ["case"] member. When the artifact names a backend, only
    that backend is re-checked; otherwise every one is. @raise Sys_error,
    {!Homunculus_util.Json.Parse_error} or Invalid_argument on unreadable or
    malformed artifacts. *)

val replay : artifact -> replay_outcome
(** Re-run the oracle on a loaded artifact, over each of its backends that
    applies to the case's model. *)

val replay_ok : replay_outcome -> bool
val render_replay : replay_outcome -> string
