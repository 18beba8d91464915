(** The coordinator side of the distributed DSE.

    Plugs into {!Homunculus_bo.Optimizer.maximize}'s [Dispatch] exec
    hook: each batch of (proposal-index, configuration) pairs is published
    as lease files for worker processes to claim, and the call returns once
    every candidate's evaluation has been read back from the per-worker
    journals — in batch order, so the optimizer's commit loop (and hence
    the {!Homunculus_bo.History.t}) is bit-identical to an inline run.

    Elasticity and fault tolerance come from two rules:

    - a lease not completed within [ttl_s] is republished (next
      generation), so a SIGKILL'd worker costs only its in-flight leases —
      each re-evaluation is bit-identical anyway (config-derived seeds),
      so duplicated completions are unobservable;
    - a lease that expires [max_reissues] times is evaluated inline via
      [local_eval], so the search completes even with zero live workers.

    Reusing a coordination directory is a distributed resume: worker
    journals already present are merged before anything is leased, and
    previously evaluated candidates never leave the coordinator. *)

module Bo = Homunculus_bo

type stats = {
  leases_issued : int;  (** fresh leases published *)
  leases_reissued : int;  (** TTL-expired leases republished *)
  inline_evaluated : int;  (** reissue budget exhausted, ran locally *)
  replay_hits : int;  (** candidates answered from merged journals *)
  merged : int;  (** evaluation records absorbed from worker journals *)
}

type t

val create :
  dir:string ->
  ?ttl_s:float ->
  ?poll_s:float ->
  ?max_reissues:int ->
  local_eval:
    (scope:string -> index:int -> config:Bo.Config.t -> Bo.Optimizer.evaluation) ->
  unit ->
  t
(** Open (creating if needed) the coordination directory. Stale task files
    and any done marker from a previous coordinator are cleared; worker
    journals are kept and merged (distributed resume). Defaults:
    [ttl_s = 30.], [poll_s = 0.05], [max_reissues = 4]. *)

val dispatch : t -> scope:string -> (int * Bo.Config.t) array -> Bo.Optimizer.evaluation array
(** Lease the batch out and block until every evaluation is in, returning
    them in batch order. Pass [fun batch -> dispatch t ~scope batch] as the
    optimizer's [dispatch] hook. *)

val finish : t -> unit
(** Write the done marker (workers drain and exit), sync and close the
    coordinator journal. *)

val stats : t -> stats
