module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng

type winner = { config : Bo.Config.t; objective : float }

type report = {
  evaluated : int;
  skipped : int;
  exact_refiltered : int;
  mispredicted_feasible : int;
  feasible_winner_vetoes : int;
  winner_matched : bool;
  exact_winner : winner option;
  filtered_winner : winner option;
  stats : Bo.Cost_model.stats;
}

let winner_of_history history =
  Option.map
    (fun (e : Bo.History.entry) ->
      { config = e.Bo.History.config; objective = e.Bo.History.objective })
    (Bo.History.best history)

let run ~seed ?settings ?cost_settings ~space ~features ~eval () =
  (* Exact arm: the reference corpus. *)
  let f ~index:_ config = eval config in
  let exact_history = Bo.Optimizer.maximize (Rng.create seed) ?settings space ~f in
  (* Filtered arm: same seed, same settings, judged by a freshly warmed
     filter. The observation feed mirrors the compiler's wiring: every
     committed entry except the filter's own predicted skips trains it. *)
  let cm = Bo.Cost_model.create ?settings:cost_settings ~seed ~features () in
  let on_commit (_ : int) (e : Bo.History.entry) =
    if not (Bo.Cost_model.is_predicted e.Bo.History.metadata) then
      Bo.Cost_model.observe cm ~config:e.Bo.History.config
        ~objective:e.Bo.History.objective ~feasible:e.Bo.History.feasible
        ~pruned:e.Bo.History.pruned
  in
  let filtered_history =
    Bo.Optimizer.maximize (Rng.create seed) ?settings
      ~observer:{ Bo.Optimizer.no_observer with on_commit }
      ~prefilter:(Bo.Cost_model.prefilter cm) space ~f
  in
  let exact_winner = winner_of_history exact_history in
  let filtered_winner = winner_of_history filtered_history in
  (* Post-hoc audit: evaluate every skipped candidate exactly. A skip that
     turns out feasible is a misprediction; a misprediction that also beats
     the filtered run's winner is the violation the contract forbids. *)
  let skipped = Bo.Cost_model.skipped_configs cm in
  let mispredicted = ref 0 and vetoes = ref 0 in
  List.iter
    (fun config ->
      let (e : Bo.Optimizer.evaluation) = eval config in
      if e.Bo.Optimizer.feasible && not e.Bo.Optimizer.pruned then begin
        incr mispredicted;
        let beats_winner =
          match filtered_winner with
          | None -> true
          | Some w -> e.Bo.Optimizer.objective > w.objective
        in
        if beats_winner then incr vetoes
      end)
    skipped;
  let winner_matched =
    match (exact_winner, filtered_winner) with
    | None, None -> true
    | Some a, Some b ->
        Bo.Config.equal a.config b.config
        && Int64.bits_of_float a.objective = Int64.bits_of_float b.objective
    | Some _, None | None, Some _ -> false
  in
  {
    evaluated = Bo.History.length exact_history;
    skipped = List.length skipped;
    exact_refiltered = List.length skipped;
    mispredicted_feasible = !mispredicted;
    feasible_winner_vetoes = !vetoes;
    winner_matched;
    exact_winner;
    filtered_winner;
    stats = Bo.Cost_model.stats cm;
  }

let summary r =
  Printf.sprintf
    "%d evaluated, %d skipped (%d re-checked): %d mispredicted-feasible, %d \
     feasible-winner vetoes, winner %s"
    r.evaluated r.skipped r.exact_refiltered r.mispredicted_feasible
    r.feasible_winner_vetoes
    (if r.winner_matched then "matched" else "DIVERGED")
