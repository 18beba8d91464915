(* Deterministic fault plans for the evaluation supervisor.

   A plan is a fixed list of faults addressed by the optimizer's proposal
   index (candidate 0 is the first proposal, in proposal order — the same
   order at any worker count), so an injected failure fires at the same
   point of the search wherever the candidate happens to execute. All
   queries are pure functions of (plan, index, attempt); the plan carries no
   mutable state, which is what makes fault-injection runs reproducible and
   lets the same plan drive both arms of an A/B comparison. *)

exception Injected of string
(** A simulated backend/trainer exception, raised by the supervisor on
    behalf of a [Raise_on] fault. *)

exception Killed of int
(** A simulated process crash: raised once the journal has absorbed the
    configured number of records. The payload is that record count. *)

type fault =
  | Raise_on of { index : int; attempts : int }
      (** raise {!Injected} for candidate [index]'s first [attempts]
          attempts; [max_int] means every attempt (a hard failure that ends
          in quarantine), [1] a transient failure the first retry clears *)
  | Nan_loss_on of { index : int; epoch : int }
      (** make candidate [index]'s training loss read as NaN at [epoch],
          triggering the supervisor's divergence detection (only if the
          candidate trains) *)
  | Timeout_on of { index : int }
      (** candidate [index] exhausts its wall-clock budget immediately *)
  | Infeasible_on of { index : int; objective : float; pruned : bool }
      (** candidate [index] evaluates to a plain infeasible result without
          any failure machinery — the control arm for "the final best model
          matches the run where those candidates were merely infeasible" *)
  | Kill_after of { records : int }
      (** crash the search (raise {!Killed}) once the journal holds
          [records] records *)
  | Drift_on of { window : int }
      (** force the serving monitor's drift detector to fire when
          evaluation window [window] closes — the autopilot's trigger path,
          exercised without having to degrade the traffic *)
  | Research_timeout_on of { generation : int }
      (** make re-search [generation] exhaust its wall-clock budget before
          evaluating anything, deterministically driving the autopilot's
          graceful-degradation branch *)

type t = fault list

let create faults = faults
let faults t = t

let fault_to_string = function
  | Raise_on { index; attempts } when attempts = max_int ->
      Printf.sprintf "raise@%d" index
  | Raise_on { index; attempts } -> Printf.sprintf "raise@%d:%d" index attempts
  | Nan_loss_on { index; epoch } -> Printf.sprintf "nan@%d:%d" index epoch
  | Timeout_on { index } -> Printf.sprintf "timeout@%d" index
  | Infeasible_on { index; objective = 0.; pruned = false } ->
      Printf.sprintf "infeasible@%d" index
  | Infeasible_on { index; objective; pruned } ->
      Printf.sprintf "infeasible@%d:%h%s" index objective
        (if pruned then ":pruned" else "")
  | Kill_after { records } -> Printf.sprintf "kill@%d" records
  | Drift_on { window } -> Printf.sprintf "drift@%d" window
  | Research_timeout_on { generation } ->
      Printf.sprintf "research-timeout@%d" generation

let to_string t = String.concat "," (List.map fault_to_string t)

let fault_of_string text =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Faultplan.of_string: %S (expected raise@K[:N], nan@K:E, timeout@K, \
          infeasible@K[:OBJ[:pruned]], drift@W, research-timeout@G, or \
          kill@N)"
         text)
  in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> fail () in
  match String.index_opt text '@' with
  | None -> fail ()
  | Some at -> (
      let kind = String.sub text 0 at in
      let rest = String.sub text (at + 1) (String.length text - at - 1) in
      let parts = String.split_on_char ':' rest in
      match (kind, parts) with
      | "raise", [ k ] -> Raise_on { index = int_of k; attempts = max_int }
      | "raise", [ k; n ] -> Raise_on { index = int_of k; attempts = int_of n }
      | "nan", [ k; e ] -> Nan_loss_on { index = int_of k; epoch = int_of e }
      | "timeout", [ k ] -> Timeout_on { index = int_of k }
      | "infeasible", [ k ] ->
          Infeasible_on { index = int_of k; objective = 0.; pruned = false }
      | "infeasible", [ k; obj ] ->
          let objective =
            match float_of_string_opt obj with Some v -> v | None -> fail ()
          in
          Infeasible_on { index = int_of k; objective; pruned = false }
      | "infeasible", [ k; obj; "pruned" ] ->
          let objective =
            match float_of_string_opt obj with Some v -> v | None -> fail ()
          in
          Infeasible_on { index = int_of k; objective; pruned = true }
      | "kill", [ n ] -> Kill_after { records = int_of n }
      | "drift", [ w ] -> Drift_on { window = int_of w }
      | "research-timeout", [ g ] ->
          Research_timeout_on { generation = int_of g }
      | _ -> fail ())

let of_string text =
  match String.trim text with
  | "" -> []
  | text ->
      List.map
        (fun part -> fault_of_string (String.trim part))
        (String.split_on_char ',' text)

(* Supervisor-facing queries. *)

let check_raise t ~index ~attempt =
  List.iter
    (function
      | Raise_on { index = i; attempts } when i = index && attempt < attempts ->
          raise
            (Injected
               (Printf.sprintf "injected failure for candidate %d (attempt %d)"
                  index attempt))
      | _ -> ())
    t

let nan_epoch_at t ~index =
  List.find_map
    (function
      | Nan_loss_on { index = i; epoch } when i = index -> Some epoch
      | _ -> None)
    t

let timeout_at t ~index =
  List.exists (function Timeout_on { index = i } -> i = index | _ -> false) t

let infeasible_at t ~index =
  List.find_map
    (function
      | Infeasible_on { index = i; objective; pruned } when i = index ->
          Some (objective, pruned)
      | _ -> None)
    t

let check_kill t ~records =
  List.iter
    (function
      | Kill_after { records = n } when records >= n -> raise (Killed records)
      | _ -> ())
    t

let drift_windows t =
  List.filter_map (function Drift_on { window } -> Some window | _ -> None) t

let research_timeout_at t ~generation =
  List.exists
    (function
      | Research_timeout_on { generation = g } -> g = generation
      | _ -> false)
    t
