(** Deterministic fault plans for exercising the evaluation supervisor.

    A plan is a fixed list of faults addressed by the optimizer's proposal
    index — candidate 0 is the first proposal drawn, in proposal order, the
    same order at any worker count — so an injected failure fires at the
    same point of the search wherever the candidate happens to execute.
    Queries are pure functions of (plan, index, attempt): the plan carries
    no mutable state, which keeps fault-injection runs reproducible and lets
    one plan drive both arms of an A/B comparison. *)

exception Injected of string
(** A simulated backend/trainer exception, raised on behalf of a
    [Raise_on] fault. *)

exception Killed of int
(** A simulated process crash, raised once the journal has absorbed the
    configured number of records. The payload is that record count. *)

type fault =
  | Raise_on of { index : int; attempts : int }
      (** Raise {!Injected} for candidate [index]'s first [attempts]
          attempts. [max_int] means every attempt (a hard failure that ends
          quarantined); [1] is a transient failure one retry clears. *)
  | Nan_loss_on of { index : int; epoch : int }
      (** Candidate [index]'s training loss reads as NaN at [epoch],
          triggering the supervisor's divergence detection. Fires only if
          the candidate trains: a DNN the shape check rejects never
          does. *)
  | Timeout_on of { index : int }
      (** Candidate [index] exhausts its wall-clock budget immediately. *)
  | Infeasible_on of { index : int; objective : float; pruned : bool }
      (** Candidate [index] evaluates to a plain infeasible result with no
          failure machinery involved — the control arm for asserting that a
          failure-laden search matches a merely-infeasible one. *)
  | Kill_after of { records : int }
      (** Crash the search (raise {!Killed}) once the journal holds
          [records] records. *)
  | Drift_on of { window : int }
      (** Force the serving monitor's drift detector to fire when
          evaluation window [window] closes (the autopilot trigger path) —
          applied by the serving driver via
          [Homunculus_serve.Monitor.force_drift_at]. *)
  | Research_timeout_on of { generation : int }
      (** Make autopilot re-search [generation] (0-based, the [NNN] of its
          [research-NNN.jsonl] journal) exhaust its wall-clock budget before
          evaluating a single candidate, driving the
          incumbent-keeps-serving degradation branch deterministically.
          Applies on every attempt of that generation — an unfinished
          generation is retried on the next alarm, so the fault keeps
          holding it back until the plan changes. *)

type t

val create : fault list -> t
val faults : t -> fault list

val to_string : t -> string
(** Compact text form, e.g. ["raise@3,nan@5:2,timeout@7,kill@4"]. *)

val of_string : string -> t
(** Parse the [--faults] grammar: comma-separated [raise@K[:N]], [nan@K:E],
    [timeout@K], [infeasible@K[:OBJ[:pruned]]], [drift@W],
    [research-timeout@G], [kill@N]. The empty string is the empty plan.
    @raise Invalid_argument on malformed input. *)

val check_raise : t -> index:int -> attempt:int -> unit
(** @raise Injected when a [Raise_on] fault targets this candidate and
    [attempt] (0-based) is below its attempt count. *)

val nan_epoch_at : t -> index:int -> int option
(** The epoch at which this candidate's loss should turn NaN, if any. *)

val timeout_at : t -> index:int -> bool
(** Whether this candidate should exhaust its budget immediately. *)

val infeasible_at : t -> index:int -> (float * bool) option
(** The [(objective, pruned)] of a forced plain-infeasible evaluation. *)

val check_kill : t -> records:int -> unit
(** @raise Killed when a [Kill_after] threshold is reached. *)

val drift_windows : t -> int list
(** The window indices of every [Drift_on] fault, in plan order — the
    serving driver pre-registers each with the monitor. *)

val research_timeout_at : t -> generation:int -> bool
(** Whether this re-search generation should time out before evaluating. *)
