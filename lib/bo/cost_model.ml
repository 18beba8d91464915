module Rng = Homunculus_util.Rng
module Rfc = Homunculus_ml.Random_forest.Classifier
module Rfr = Homunculus_ml.Random_forest.Regressor

type settings = {
  margin : float;
  conviction : float;
  min_observations : int;
  refit_every : int;
  n_trees : int;
  winner_sigma : float;
}

let default_settings =
  {
    margin = 0.15;
    conviction = 0.02;
    min_observations = 12;
    refit_every = 4;
    n_trees = 30;
    winner_sigma = 3.0;
  }

let predicted_key = "cm_predicted"
let prob_key = "cm_p_feasible"

type verdict =
  | Exact_required of string
  | Predicted_infeasible of { p_feasible : float; predicted_objective : float }

type stats = {
  observations : int;
  consults : int;
  skipped : int;
  boundary : int;
  winner_guarded : int;
  refits : int;
}

let zero_stats =
  {
    observations = 0;
    consults = 0;
    skipped = 0;
    boundary = 0;
    winner_guarded = 0;
    refits = 0;
  }

let merge_stats a b =
  {
    observations = a.observations + b.observations;
    consults = a.consults + b.consults;
    skipped = a.skipped + b.skipped;
    boundary = a.boundary + b.boundary;
    winner_guarded = a.winner_guarded + b.winner_guarded;
    refits = a.refits + b.refits;
  }

let stats_summary s =
  Printf.sprintf
    "%d observations, %d consults, %d skipped, %d boundary fallbacks, %d \
     winner-guarded, %d refits"
    s.observations s.consults s.skipped s.boundary s.winner_guarded s.refits

(* One labeled exact evaluation. Features are extracted once, at observation
   time, and reused by every later refit. *)
type obs = {
  features : float array;
  feasible : bool;
  objective : float;
  pruned : bool;
}

type t = {
  settings : settings;
  extract : Config.t -> float array;
  rng : Rng.t;  (** private stream: refits never touch the search's RNG *)
  mutable observations : obs list;  (** newest first *)
  mutable n : int;
  mutable n_feasible : int;
  mutable n_infeasible : int;
  mutable best_observed : float option;
      (** highest feasible non-pruned objective seen — the incumbent the
          winner guard compares against. Derived purely from the observation
          stream, so a resumed search (which replays the same stream)
          reaches the same value. *)
  mutable fresh : int;  (** observations since the last refit *)
  mutable classifier : Rfc.t option;
  mutable regressor : Rfr.t option;
  (* counters *)
  mutable consults : int;
  mutable skipped : int;
  mutable boundary : int;
  mutable winner_guarded : int;
  mutable refits : int;
  mutable skipped_configs : Config.t list;  (** newest first *)
}

let create ?(settings = default_settings) ~seed ~features () =
  if settings.refit_every <= 0 then
    invalid_arg "Cost_model.create: refit_every <= 0";
  if settings.min_observations < 2 then
    invalid_arg "Cost_model.create: min_observations < 2";
  {
    settings;
    extract = features;
    rng = Rng.create seed;
    observations = [];
    n = 0;
    n_feasible = 0;
    n_infeasible = 0;
    best_observed = None;
    fresh = 0;
    classifier = None;
    regressor = None;
    consults = 0;
    skipped = 0;
    boundary = 0;
    winner_guarded = 0;
    refits = 0;
    skipped_configs = [];
  }

(* Refit both models from scratch on the cached feature vectors. Runs at
   observation time (never at classification time), so the model state is a
   pure function of the observation sequence: a resumed search, replaying the
   same exact evaluations in the same order, reproduces every prediction the
   original run made — which is what keeps `--resume` diff-clean with the
   filter enabled. *)
let refit t =
  let obs = Array.of_list (List.rev t.observations) in
  let x = Array.map (fun o -> o.features) obs in
  let y = Array.map (fun o -> if o.feasible then 1 else 0) obs in
  t.classifier <- Some (Rfc.fit t.rng ~n_trees:t.settings.n_trees ~x ~y ~n_classes:2 ());
  let full = Array.of_list
      (List.filter (fun o -> o.feasible && not o.pruned) (List.rev t.observations))
  in
  t.regressor <-
    (if Array.length full = 0 then None
     else
       let fx = Array.map (fun o -> o.features) full in
       let fy = Array.map (fun o -> o.objective) full in
       Some (Rfr.fit t.rng ~n_trees:t.settings.n_trees ~x:fx ~y:fy ()));
  t.refits <- t.refits + 1;
  t.fresh <- 0

(* A new incumbent also forces a refit. [best_observed] moves at once, so a
   classifier fitted before it would judge the proposals clustering around
   the new incumbent with a stale boundary; its skips add no observations,
   so waiting for [refit_every] fresh ones could lock the filter in. The
   trigger is still a function of the observation stream alone. *)
let observe t ~config ~objective ~feasible ~pruned =
  let o = { features = t.extract config; feasible; objective; pruned } in
  t.observations <- o :: t.observations;
  t.n <- t.n + 1;
  let new_incumbent =
    feasible && (not pruned) && (not (Float.is_nan objective))
    && match t.best_observed with Some b -> objective > b | None -> true
  in
  if feasible then t.n_feasible <- t.n_feasible + 1
  else t.n_infeasible <- t.n_infeasible + 1;
  if new_incumbent then t.best_observed <- Some objective;
  t.fresh <- t.fresh + 1;
  if
    t.n >= t.settings.min_observations
    && t.n_feasible > 0 && t.n_infeasible > 0
    && (Option.is_none t.classifier || new_incumbent
       || t.fresh >= t.settings.refit_every)
  then refit t

let classify t config =
  t.consults <- t.consults + 1;
  if t.settings.margin = infinity then Exact_required "filter disabled (margin = inf)"
  else
    match t.classifier with
    | None -> Exact_required "warm-up: too few (or one-sided) observations"
    | Some cls -> (
        let point = t.extract config in
        let p = (Rfc.predict_proba cls point).(1) in
        if p >= 0.5 -. t.settings.margin then begin
          if p < 0.5 +. t.settings.margin then t.boundary <- t.boundary + 1;
          Exact_required "predicted feasible or within the decision margin"
        end
        else
          match (t.best_observed, t.regressor) with
          | None, _ | _, None ->
              (* Never skip before a feasible incumbent exists: with nothing
                 to beat, any candidate is a potential winner. *)
              Exact_required "no feasible incumbent yet"
          | Some best, Some reg ->
              let mean, std = Rfr.predict_with_std reg point in
              if
                p >= t.settings.conviction
                && not (mean +. (t.settings.winner_sigma *. std) < best)
              then begin
                t.winner_guarded <- t.winner_guarded + 1;
                Exact_required "predicted objective could beat the incumbent"
              end
              else begin
                t.skipped <- t.skipped + 1;
                t.skipped_configs <- config :: t.skipped_configs;
                Predicted_infeasible { p_feasible = p; predicted_objective = mean }
              end)

let predicted_evaluation ~p_feasible ~predicted_objective =
  {
    Optimizer.objective = predicted_objective;
    feasible = false;
    pruned = false;
    metadata = [ (predicted_key, 1.); (prob_key, p_feasible) ];
  }

let is_predicted metadata = List.mem_assoc predicted_key metadata

let stats t =
  {
    observations = t.n;
    consults = t.consults;
    skipped = t.skipped;
    boundary = t.boundary;
    winner_guarded = t.winner_guarded;
    refits = t.refits;
  }

let skipped_configs t = List.rev t.skipped_configs

let prefilter t =
 fun ~index:(_ : int) config ->
  match classify t config with
  | Exact_required _ -> None
  | Predicted_infeasible { p_feasible; predicted_objective } ->
      Some (predicted_evaluation ~p_feasible ~predicted_objective)
