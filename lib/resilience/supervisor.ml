module Bo = Homunculus_bo

(* Wall-clock source for evaluation budgets. [Unix.gettimeofday] can step
   backwards under NTP adjustment; a deadline computed before a step would
   then never expire (or expire twice). The max-guard makes the reading
   monotonic non-decreasing across all domains. *)
module Monotonic = struct
  let last = Atomic.make neg_infinity

  let rec now () =
    let t = Unix.gettimeofday () in
    let prev = Atomic.get last in
    if t >= prev then if Atomic.compare_and_set last prev t then t else now ()
    else prev
end

type failure_class = Divergence | Backend | Budget

let class_name = function
  | Divergence -> "divergence"
  | Backend -> "backend"
  | Budget -> "budget"

let class_code = function Divergence -> 1. | Backend -> 2. | Budget -> 3.

let class_of_code code =
  if code = 1. then Some Divergence
  else if code = 2. then Some Backend
  else if code = 3. then Some Budget
  else None

let failure_key = "failure"
let retries_key = "failure_retries"

exception Diverged of { epoch : int; last_metric : float option }
exception Timed_out of { elapsed_s : float }

type settings = {
  max_retries : int;
  retry_backend : bool;
  budget_s : float option;
}

let default_settings = { max_retries = 1; retry_backend = true; budget_s = None }

type context = {
  attempt : int;
  started : float;
  deadline : float option;
  nan_epoch : int option;
  mutable last_metric : float option;
}

let epoch_guard ctx ~epoch ~loss ~metric =
  (match metric with
  | Some m when Float.is_finite m -> ctx.last_metric <- Some m
  | Some _ | None -> ());
  let loss =
    (* A [Nan_loss_on] fault makes the loss read as NaN from its epoch on,
       exercising the same detection path a real divergence takes. *)
    match ctx.nan_epoch with Some e when epoch >= e -> Float.nan | _ -> loss
  in
  if not (Float.is_finite loss) then
    raise (Diverged { epoch; last_metric = ctx.last_metric });
  match ctx.deadline with
  | Some d ->
      let now = Monotonic.now () in
      if now > d then raise (Timed_out { elapsed_s = now -. ctx.started })
  | None -> ()

type t = {
  settings : settings;
  journal : Journal.t option;
  replay : Journal.replay option;
  faults : Faultplan.t option;
  replayed : int Atomic.t;
  failures : int Atomic.t;
}

let create ?(settings = default_settings) ?journal ?replay ?faults () =
  {
    settings;
    journal;
    replay;
    faults;
    replayed = Atomic.make 0;
    failures = Atomic.make 0;
  }

let replayed_count t = Atomic.get t.replayed
let failure_count t = Atomic.get t.failures

let eval_of_record (r : Journal.record) : Bo.Optimizer.evaluation =
  {
    objective = r.objective;
    feasible = r.feasible;
    pruned = r.pruned;
    metadata = r.metadata;
  }

let commit t ~scope ~index ~config ~(eval : Bo.Optimizer.evaluation) ~failure =
  (match t.journal with
  | None -> ()
  | Some journal ->
      let count =
        Journal.append journal
          {
            scope;
            index;
            config;
            objective = eval.objective;
            feasible = eval.feasible;
            pruned = eval.pruned;
            metadata = eval.metadata;
            failure;
            kind = Journal.Exact;
          }
      in
      Option.iter (fun plan -> Faultplan.check_kill plan ~records:count) t.faults);
  eval

let supervise t ~scope ~index ~config thunk =
  match
    Option.bind t.replay (fun replay -> Journal.find replay ~scope ~config)
  with
  | Some r ->
      (* Recorded outcome from a previous incarnation: return it verbatim —
         no re-training, no journal write, no fault checks — so the rebuilt
         history is bit-for-bit the uninterrupted one. *)
      Atomic.incr t.replayed;
      eval_of_record r
  | None -> (
      match
        Option.bind t.faults (fun plan -> Faultplan.infeasible_at plan ~index)
      with
      | Some (objective, pruned) ->
          (* Control arm: the candidate is merely infeasible, with none of
             the failure machinery involved. *)
          commit t ~scope ~index ~config
            ~eval:{ objective; feasible = false; pruned; metadata = [] }
            ~failure:None
      | None ->
          let fail ~attempt cls message ~objective ~pruned =
            Atomic.incr t.failures;
            let metadata =
              [ (failure_key, class_code cls); (retries_key, float_of_int attempt) ]
            in
            let eval : Bo.Optimizer.evaluation =
              { objective; feasible = false; pruned; metadata }
            in
            commit t ~scope ~index ~config ~eval
              ~failure:
                (Some
                   {
                     Journal.failure_class = class_name cls;
                     message;
                     retries = attempt;
                   })
          in
          let rec attempt_loop attempt =
            let started = Monotonic.now () in
            let ctx =
              {
                attempt;
                started;
                deadline =
                  Option.map (fun b -> started +. b) t.settings.budget_s;
                nan_epoch =
                  Option.bind t.faults (fun plan ->
                      Faultplan.nan_epoch_at plan ~index);
                last_metric = None;
              }
            in
            match
              Option.iter
                (fun plan ->
                  Faultplan.check_raise plan ~index ~attempt;
                  if Faultplan.timeout_at plan ~index then
                    raise (Timed_out { elapsed_s = 0. }))
                t.faults;
              thunk ctx
            with
            | eval ->
                commit t ~scope ~index ~config ~eval ~failure:None
            | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) ->
                raise e
            | exception (Faultplan.Killed _ as e) -> raise e
            | exception Diverged { epoch; last_metric } ->
                (* Non-finite loss: never retried (the same data and seed
                   diverge again), but the last finite validation metric is
                   kept as a partial-budget observation, like an ASHA-pruned
                   run, so the surrogate still learns from it. *)
                fail ~attempt Divergence
                  (Printf.sprintf "training diverged at epoch %d" epoch)
                  ~objective:(Option.value last_metric ~default:0.)
                  ~pruned:true
            | exception Timed_out { elapsed_s } ->
                fail ~attempt Budget
                  (Printf.sprintf "wall-clock budget exhausted after %.3fs"
                     elapsed_s)
                  ~objective:0. ~pruned:false
            | exception e ->
                if t.settings.retry_backend && attempt < t.settings.max_retries
                then attempt_loop (attempt + 1)
                else
                  fail ~attempt Backend (Printexc.to_string e) ~objective:0.
                    ~pruned:false
          in
          attempt_loop 0)
