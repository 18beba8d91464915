module Rng = Homunculus_util.Rng
module Par = Homunculus_par.Par

type settings = {
  n_init : int;
  n_iter : int;
  pool_size : int;
  local_search_frac : float;
  surrogate_trees : int;
  batch_size : int;
  refit_every : int;
  refit_threshold : int;
}

let default_settings =
  {
    n_init = 10;
    n_iter = 40;
    pool_size = 200;
    local_search_frac = 0.5;
    surrogate_trees = 30;
    batch_size = 1;
    refit_every = 1;
    refit_threshold = 0;
  }

(* Warm-start arithmetic for replay-then-continue: a re-search that replays
   [replayed] prior journal records re-derives those proposals as cache hits
   (same seed, same stream), so extending [n_iter] by the replayed guided
   tail leaves exactly [fresh] new guided evaluations to run live once the
   replay prefix is exhausted. When [replayed >= n_init] the whole warm-up
   phase is cache hits — the "skip n_init" rule costs nothing to honor
   because the warm-up proposals were already paid for. *)
let continuation settings ~replayed ~fresh =
  if fresh < 0 then invalid_arg "Bo.Optimizer.continuation: fresh < 0";
  let replayed = Stdlib.max 0 replayed in
  let guided_replayed = Stdlib.max 0 (replayed - settings.n_init) in
  { settings with n_iter = guided_replayed + fresh }

type evaluation = {
  objective : float;
  feasible : bool;
  pruned : bool;
  metadata : (string * float) list;
}

let record history space config { objective; feasible; pruned; metadata }
    ~on_commit =
  History.add history ~config
    ~encoded:(Design_space.encode space config)
    ~objective ~feasible ~pruned ~metadata ();
  Option.iter (on_commit (History.length history)) (History.last history)

let random_search rng ~n space ~f =
  let history = History.create () in
  for _ = 1 to n do
    let config = Design_space.sample rng space in
    record history space config (f config) ~on_commit:(fun _ _ -> ())
  done;
  history

let fresh_candidate rng space history ~pending =
  (* Avoid re-evaluating an exact duplicate (including candidates already
     chosen for the in-flight batch); give up after a few tries for small
     discrete spaces. *)
  let rec go attempts =
    let c = Design_space.sample rng space in
    if
      attempts <= 0
      || (not (History.mem_config history c))
         && not (List.exists (Config.equal c) pending)
    then c
    else go (attempts - 1)
  in
  go 8

type exec =
  | Pool of Par.pool
  | Dispatch of ((int * Config.t) array -> evaluation array)

type observer = {
  on_batch_start : unit -> unit;
  on_commit : int -> History.entry -> unit;
  on_refit : int -> unit;
}

let no_observer =
  {
    on_batch_start = (fun () -> ());
    on_commit = (fun _ _ -> ());
    on_refit = (fun _ -> ());
  }

(* Evaluate a batch of proposals concurrently, then commit the results to the
   history in proposal order. The black box runs on pool workers, so all the
   ordering the caller can observe (History contents, [on_commit]
   callbacks) is fixed by the proposal order, not by scheduling. Each
   candidate's index is its eventual position in the history (commits happen
   per batch, so the base is the history length at dispatch time), giving
   the black box a schedule-independent identity for the proposal. *)
(* The pre-filter (when present) judges each proposal sequentially on the
   caller's domain, before the batch is dispatched — so its decisions depend
   only on proposal order, never on worker scheduling. Skipped candidates
   commit the filter's predicted evaluation in proposal order alongside the
   exact results. *)
(* A [Dispatch] exec replaces the in-process pool for the exact
   evaluations: the surviving (index, config) pairs are handed over en bloc
   and the dispatcher returns their evaluations in the same order. Because
   proposals, pre-filter decisions, and commits all stay on the calling
   domain in proposal order, the history is identical whether the batch ran
   inline, on a pool, or through the dispatcher. *)
let evaluate_batch ~exec ?prefilter ~observer history space ~f batch =
  let base = History.length history in
  let decisions =
    match prefilter with
    | None -> Array.map (fun _ -> None) batch
    | Some judge -> Array.mapi (fun i config -> judge ~index:(base + i) config) batch
  in
  let work = ref [] in
  Array.iteri
    (fun i config ->
      if Option.is_none decisions.(i) then work := (base + i, config) :: !work)
    batch;
  let work = Array.of_list (List.rev !work) in
  let evals =
    match exec with
    | Pool par ->
        Par.parallel_map ~pool:par ~chunk:1
          (fun (index, config) -> f ~index config)
          work
    | Dispatch send ->
        let evals = send work in
        if Array.length evals <> Array.length work then
          invalid_arg "Bo.Optimizer: dispatch returned wrong arity";
        evals
  in
  let next = ref 0 in
  Array.iteri
    (fun i config ->
      let eval =
        match decisions.(i) with
        | Some predicted -> predicted
        | None ->
            let e = evals.(!next) in
            incr next;
            e
      in
      record history space config eval ~on_commit:observer.on_commit)
    batch

let maximize rng ?(settings = default_settings) ?exec ?prefilter
    ?(observer = no_observer) space ~f =
  if settings.n_init <= 0 then invalid_arg "Bo.Optimizer.maximize: n_init <= 0";
  if settings.batch_size <= 0 then
    invalid_arg "Bo.Optimizer.maximize: batch_size <= 0";
  if settings.refit_every <= 0 then
    invalid_arg "Bo.Optimizer.maximize: refit_every <= 0";
  (* Surrogate fits and candidate scoring always run in-process; only the
     exact evaluations follow [exec]. *)
  let par =
    match exec with Some (Pool p) -> p | Some (Dispatch _) | None -> Par.default ()
  in
  let exec = Option.value exec ~default:(Pool par) in
  let history = History.create () in
  (* Both phases run in rounds of up to [batch_size] proposals. Proposals
     are drawn sequentially from [rng] (so the stream is independent of the
     worker count); only the evaluations overlap. *)
  let rounds n propose =
    let remaining = ref n in
    while !remaining > 0 do
      let k = Stdlib.min settings.batch_size !remaining in
      let batch = propose k in
      observer.on_batch_start ();
      evaluate_batch ~exec ?prefilter ~observer history space ~f batch;
      remaining := !remaining - k
    done
  in
  (* Phase 1: uniform random initialization. *)
  rounds settings.n_init (fun k ->
      let pending = ref [] in
      Array.init k (fun _ ->
          let c = fresh_candidate rng space history ~pending:!pending in
          pending := c :: !pending;
          c));
  (* Phase 2: surrogate-guided rounds. Each round proposes up to
     [batch_size] candidates from one surrogate (constant-liar batching), so
     a batched run spends the same evaluation budget over [n_iter /
     batch_size] refits — and once the history outgrows [refit_threshold],
     the surrogate pair is additionally reused until [refit_every] fresh
     evaluations have accumulated, amortizing forest fits over several
     rounds. Reused rounds consume no RNG for fitting; determinism is per
     (seed, settings), as always. *)
  let fitted = ref None in
  let propose_guided k =
    let len = History.length history in
    let surrogate, feas_model =
      match !fitted with
      | Some (s, fm, fit_len)
        when len > settings.refit_threshold
             && len - fit_len < settings.refit_every ->
          (s, fm)
      | Some _ | None ->
          let x, y, feasible_flags = History.training_arrays history in
          (* The objective model learns from the feasible slice only:
             infeasible entries carry placeholder objectives (failure tags,
             predicted-infeasible commits) that nothing downstream consumes.
             The feasibility model still sees every entry. *)
          let keep = ref [] in
          Array.iteri
            (fun i flag -> if flag then keep := i :: !keep)
            feasible_flags;
          let sel = Array.of_list (List.rev !keep) in
          let s =
            Surrogate.fit rng ~n_trees:settings.surrogate_trees ~pool:par
              ~x:(Array.map (fun i -> x.(i)) sel)
              ~y:(Array.map (fun i -> y.(i)) sel)
              ()
          in
          let fm =
            Feasibility.fit rng ~n_trees:settings.surrogate_trees ~pool:par ~x
              ~feasible:feasible_flags ()
          in
          observer.on_refit len;
          fitted := Some (s, fm, len);
          (s, fm)
    in
    let incumbent = History.best history in
    let best_value =
      match incumbent with
      | Some e -> e.History.objective
      | None -> neg_infinity
    in
    (* Candidate pool: uniform samples plus neighbors of the incumbent,
       drawn sequentially so the RNG stream is schedule-independent. *)
    let n_local =
      match incumbent with
      | None -> 0
      | Some _ ->
          int_of_float
            (settings.local_search_frac *. float_of_int settings.pool_size)
    in
    let candidates =
      Array.init settings.pool_size (fun i ->
          match incumbent with
          | Some e when i < n_local ->
              Design_space.neighbor rng space e.History.config
          | Some _ | None -> Design_space.sample rng space)
    in
    (* Scoring is pure: fan it out over the pool. *)
    let scores =
      Par.parallel_map ~pool:par
        (fun candidate ->
          if History.mem_config history candidate then neg_infinity
          else begin
            let point = Design_space.encode space candidate in
            let mean, std = Surrogate.predict surrogate point in
            let ei =
              Acquisition.expected_improvement ~mean ~std ~best:best_value
            in
            let p_feas = Feasibility.prob_feasible feas_model point in
            if ei = infinity then p_feas (* no incumbent: chase feasibility *)
            else ei *. p_feas
          end)
        candidates
    in
    (* Constant-liar batch proposal: pick the top-scoring candidate, then
       pretend it was already evaluated at the incumbent's value (the
       CL-max lie) and pick again. The lie leaves [best_value] — and hence
       every remaining EI score — unchanged, so without refitting the
       surrogate it reduces to selecting the k best distinct candidates;
       its only effect is that a proposal cannot be picked twice. Ties keep
       the lowest pool index, matching the sequential scan. *)
    let chosen = ref [] in
    let n_chosen = ref 0 in
    while !n_chosen < k do
      let best_i = ref (-1) in
      let best_s = ref neg_infinity in
      Array.iteri
        (fun i s ->
          if
            s > !best_s
            && not (List.exists (Config.equal candidates.(i)) !chosen)
          then begin
            best_i := i;
            best_s := s
          end)
        scores;
      let c =
        if !best_i >= 0 then begin
          scores.(!best_i) <- neg_infinity;
          candidates.(!best_i)
        end
        else
          (* Every pool candidate is a duplicate: fall back to fresh uniform
             samples, as the sequential loop did. *)
          fresh_candidate rng space history ~pending:!chosen
      in
      chosen := c :: !chosen;
      incr n_chosen
    done;
    Array.of_list (List.rev !chosen)
  in
  rounds settings.n_iter propose_guided;
  history
