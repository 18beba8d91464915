open Homunculus_alchemy
open Homunculus_backends
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng
module Supervisor = Homunculus_resilience.Supervisor

exception No_feasible_model of string
exception Search_budget_exhausted

type options = {
  seed : int;
  bo_settings : Bo.Optimizer.settings;
  emit_code : bool;
  fusion_threshold : float option;
  prune : Bo.Asha.settings option;
  supervisor : Supervisor.t option;
  dispatch :
    (scope:string -> (int * Bo.Config.t) array -> Bo.Optimizer.evaluation array)
    option;
}

let default_options =
  {
    seed = 42;
    bo_settings = Bo.Optimizer.default_settings;
    emit_code = true;
    fusion_threshold = None;
    prune = None;
    supervisor = None;
    dispatch = None;
  }

let quick_options =
  {
    default_options with
    bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 5;
        n_iter = 10;
        pool_size = 64;
      };
  }

type model_result = {
  spec : Model_spec.t;
  artifact : Evaluator.artifact;
  history : Bo.History.t;
  histories : (Model_spec.algorithm * Bo.History.t) list;
  code : string option;
}

type result = {
  platform : Platform.t;
  schedule : Schedule.t;
  models : model_result list;
  combined : Schedule.combined;
  bundle_code : string option;
}

let emit_code platform model_ir =
  match platform.Platform.target with
  | Platform.Taurus _ -> Spatial.emit model_ir
  | Platform.Fpga _ -> (
      (* The FPGA flow compiles Spatial down to RTL (paper §5.2); ship both
         artifacts. Classical models stay at the Spatial level. *)
      match model_ir with
      | Model_ir.Dnn _ -> Spatial.emit model_ir ^ "\n" ^ Verilog.emit model_ir
      | Model_ir.Kmeans _ | Model_ir.Svm _ | Model_ir.Tree _ ->
          Spatial.emit model_ir)
  | Platform.Tofino _ ->
      P4gen.emit model_ir ^ "\n" ^ P4gen.emit_entries model_ir

(* The one per-candidate black box, shared by the inline search,
   [worker_eval], the winner rebuild and the trade-off search. A
   per-configuration seed makes it deterministic: the same suggestion always
   measures the same, which stabilizes the search — and makes any artifact
   rebuildable from just its config, in any process. Under a supervisor,
   failures become tagged infeasible evaluations instead of killing the
   search, and recorded outcomes replay without re-training; retries reuse
   the same config-derived seed. [score] turns the artifact into the
   optimizer's evaluation. *)
let evaluate_candidate ~seed ?supervisor ?sched ~scope ~index ~score platform
    spec algorithm config =
  let run ?guard () =
    let eval_rng = Rng.create (seed lxor Bo.Config.hash config) in
    score
      (Evaluator.evaluate eval_rng ?prune:sched ?guard platform spec algorithm
         config)
  in
  match supervisor with
  | None -> run ()
  | Some sup ->
      Supervisor.supervise sup ~scope ~index ~config (fun ctx ->
          run ~guard:(Supervisor.epoch_guard ctx) ())

let search_algorithm rng ~seed ~settings ?prune ?supervisor ?dispatch
    ?deadline ?(score = Evaluator.to_bo_evaluation) platform spec
    algorithm =
  let data = Model_spec.load spec in
  let input_dim =
    Homunculus_ml.Dataset.n_features data.Model_spec.train
  in
  let space = Space_builder.build platform algorithm ~input_dim in
  let scope =
    Model_spec.name spec ^ "/" ^ Model_spec.algorithm_to_string algorithm
  in
  (* Rung pruning only pays off where training is epoch-iterative. *)
  let sched =
    match (prune, algorithm) with
    | Some s, Model_spec.Dnn -> Some (Bo.Asha.create ~settings:s ())
    | (Some _, _ | None, _) -> None
  in
  (* [eval] may run on worker domains when the optimizer batches proposals.
     [best] only caches the artifact whose evaluation ranks highest under
     the history's winner order, to spare the winner a rebuild; the order
     is total, so completion order cannot change it. *)
  let best = ref None in
  let best_lock = Mutex.create () in
  let eval ?supervisor ~index config =
    evaluate_candidate ~seed ?supervisor ?sched ~scope ~index platform spec
      algorithm config ~score:(fun artifact ->
        let ev = score artifact in
        let entry =
          {
            Bo.History.iteration = index + 1;
            config;
            objective = ev.Bo.Optimizer.objective;
            feasible = ev.Bo.Optimizer.feasible;
            pruned = ev.Bo.Optimizer.pruned;
            metadata = [];
          }
        in
        Mutex.protect best_lock (fun () ->
            match !best with
            | Some (b, _) when Bo.History.compare_entries entry b >= 0 -> ()
            | Some _ | None -> best := Some (entry, artifact));
        ev)
  in
  (* The whole-search wall-clock deadline is enforced at batch boundaries,
     on the calling domain, before the batch is dispatched: candidates in
     flight always finish (and are journaled), so a budget abort leaves the
     journal holding only completed evaluations — exactly what a warm
     restart wants to replay. *)
  let on_batch_start () =
    (match deadline with
    | Some d when Unix.gettimeofday () > d -> raise Search_budget_exhausted
    | Some _ | None -> ());
    Option.iter Bo.Asha.freeze sched
  in
  (* Dispatch: batches go to the caller's hook instead of the in-process
     pool; [eval] then only runs for the winner rebuild. *)
  let exec = Option.map (fun d -> Bo.Optimizer.Dispatch (d ~scope)) dispatch in
  let history =
    Bo.Optimizer.maximize rng ~settings ?exec
      ~observer:{ Bo.Optimizer.no_observer with on_batch_start }
      space ~f:(eval ?supervisor)
  in
  (* The winner comes from the history, whose order mirrors
     [compare_artifacts]. Replayed or dispatched evaluations never produced
     an artifact here, so a winner missing from [best] is rebuilt from its
     config-derived seed. A failure-tagged winner has no artifact:
     rebuilding would just fail again. *)
  let winner =
    match Bo.History.best_entry history with
    | None -> None
    | Some e when List.mem_assoc Supervisor.failure_key e.Bo.History.metadata
      ->
        None
    | Some e -> (
        match !best with
        | Some (_, a) when Bo.Config.equal a.Evaluator.config e.Bo.History.config
          ->
            Some a
        | Some _ | None ->
            best := None;
            ignore (eval ~index:(e.Bo.History.iteration - 1) e.Bo.History.config);
            Option.map snd !best)
  in
  (winner, history)

(* [deadline] is not an option: only [research] sets one. *)
let search_model_until ?deadline options platform spec =
  (* ASHA rungs share mutable per-batch thresholds that the evaluation
     callback consults; a dispatched batch bypasses that callback, so the
     combination cannot keep its determinism contract. Refuse rather than
     silently diverge. *)
  if Option.is_some options.dispatch && Option.is_some options.prune then
    invalid_arg "Compiler.search_model: dispatch is incompatible with prune";
  let candidates = Candidate.filter platform spec in
  if candidates = [] then
    raise
      (No_feasible_model
         (Printf.sprintf
            "%s: no candidate algorithm survives filtering on %s"
            (Model_spec.name spec) (Platform.name platform)));
  (* Split the evaluation budget across the parallel per-algorithm runs. *)
  let n = List.length candidates in
  let settings =
    {
      options.bo_settings with
      Bo.Optimizer.n_iter =
        Stdlib.max 1 (options.bo_settings.Bo.Optimizer.n_iter / n);
    }
  in
  let master = Rng.create options.seed in
  let runs =
    List.map
      (fun algorithm ->
        let rng = Rng.split master in
        let best, history =
          search_algorithm rng ~seed:options.seed ~settings
            ?prune:options.prune ?supervisor:options.supervisor
            ?dispatch:options.dispatch ?deadline platform spec algorithm
        in
        (algorithm, best, history))
      candidates
  in
  let best =
    List.fold_left
      (fun acc (_, candidate, _) ->
        match candidate with
        | Some c -> Evaluator.better_artifact acc c
        | None -> acc)
      None runs
  in
  match best with
  | None ->
      raise
        (No_feasible_model
           (Printf.sprintf "%s: search produced no models" (Model_spec.name spec)))
  | Some artifact when not artifact.Evaluator.verdict.Resource.feasible ->
      raise
        (No_feasible_model
           (Printf.sprintf "%s: no configuration met the constraints (best %s)"
              (Model_spec.name spec)
              (Option.value artifact.Evaluator.verdict.Resource.rejection
                 ~default:"unknown rejection")))
  | Some artifact ->
      let winning_history =
        List.find_map
          (fun (algorithm, _, history) ->
            if algorithm = artifact.Evaluator.algorithm then Some history
            else None)
          runs
        |> Option.get
      in
      {
        spec;
        artifact;
        history = winning_history;
        histories = List.map (fun (a, _, h) -> (a, h)) runs;
        code =
          (if options.emit_code then
             Some (emit_code platform artifact.Evaluator.model_ir)
           else None);
      }

let search_model ?(options = default_options) platform spec =
  search_model_until options platform spec

(* The evaluation side of dispatch: evaluate one dispatched candidate
   exactly as the inline search would have. The scope string carries
   everything positional ("<spec-name>/<algorithm>"); the config-derived
   seed carries everything stochastic — so every call produces the same
   evaluation for the same candidate. No ASHA (incompatible with dispatch),
   no best-artifact tracking (the search picks the winner from the history
   and rebuilds it). *)
let worker_eval ~options ~platform ~specs ~scope ~index ~config =
  let name, algorithm =
    match String.rindex_opt scope '/' with
    | None ->
        invalid_arg (Printf.sprintf "Compiler.worker_eval: bad scope %S" scope)
    | Some i ->
        ( String.sub scope 0 i,
          Model_spec.algorithm_of_string
            (String.sub scope (i + 1) (String.length scope - i - 1)) )
  in
  let spec =
    match List.find_opt (fun s -> Model_spec.name s = name) specs with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "Compiler.worker_eval: no spec named %S" name)
  in
  evaluate_candidate ~seed:options.seed ?supervisor:options.supervisor ~scope
    ~index ~score:Evaluator.to_bo_evaluation platform spec algorithm config

(* Incremental re-search: one budgeted search_model run whose failure modes
   are data, not exceptions — the autopilot's degradation branches key off
   the outcome constructor. The deadline is absolute wall clock computed
   here, so replay cache hits (which cost microseconds) effectively extend
   how much of the budget reaches fresh evaluations: a warm start spends
   the same seconds on strictly newer candidates. *)
type research_stats = { wall_s : float; replayed : int }

type research_outcome =
  | Research_won of model_result
  | Research_infeasible of string
  | Research_budget

let research ?(options = default_options) ?budget_s platform spec =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) budget_s in
  let replayed () =
    match options.supervisor with
    | Some s -> Supervisor.replayed_count s
    | None -> 0
  in
  let before = replayed () in
  let outcome =
    match search_model_until ?deadline options platform spec with
    | r -> Research_won r
    | exception No_feasible_model msg -> Research_infeasible msg
    | exception Search_budget_exhausted -> Research_budget
  in
  ( outcome,
    {
      wall_s = Unix.gettimeofday () -. started;
      replayed = replayed () - before;
    } )

type tradeoff_point = {
  artifact : Evaluator.artifact;
  resource_fraction : float;
  weight : float;
}

let resource_fraction (verdict : Resource.verdict) =
  List.fold_left
    (fun acc u -> Stdlib.max acc (u.Resource.used /. u.Resource.available))
    0. verdict.Resource.usages

let search_tradeoff ?(options = default_options) ?(n_scalarizations = 5)
    platform spec =
  if n_scalarizations <= 0 then
    invalid_arg "Compiler.search_tradeoff: n_scalarizations <= 0";
  let candidates = Candidate.filter platform spec in
  if candidates = [] then
    raise
      (No_feasible_model
         (Printf.sprintf "%s: no candidate algorithm survives filtering"
            (Model_spec.name spec)));
  let algorithm = List.hd candidates in
  let master = Rng.create options.seed in
  let points = ref [] in
  for _ = 1 to n_scalarizations do
    let run_rng = Rng.split master in
    let weight = Rng.uniform run_rng 0.3 1.0 in
    let score artifact =
      {
        Bo.Optimizer.objective =
          (weight *. artifact.Evaluator.objective)
          -. ((1. -. weight) *. resource_fraction artifact.Evaluator.verdict);
        feasible = artifact.Evaluator.verdict.Resource.feasible;
        pruned = artifact.Evaluator.pruned;
        metadata = [];
      }
    in
    match
      search_algorithm run_rng ~seed:options.seed
        ~settings:options.bo_settings ~score platform spec algorithm
    with
    | Some artifact, _ when artifact.Evaluator.verdict.Resource.feasible ->
        let resource_fraction = resource_fraction artifact.Evaluator.verdict in
        points := { artifact; resource_fraction; weight } :: !points
    | (Some _ | None), _ -> ()
  done;
  if !points = [] then
    raise
      (No_feasible_model
         (Printf.sprintf "%s: no scalarization found a feasible model"
            (Model_spec.name spec)));
  (* Keep the non-dominated set over (objective, -resource_fraction). *)
  let arr = Array.of_list !points in
  let coords =
    Array.map
      (fun p -> [| p.artifact.Evaluator.objective; -.p.resource_fraction |])
      arr
  in
  let front = Bo.Scalarize.pareto_front coords in
  Array.to_list (Array.map (fun i -> arr.(i)) front)
  |> List.sort (fun a b ->
         compare b.artifact.Evaluator.objective a.artifact.Evaluator.objective)

module Policy = Homunculus_policy.Policy
module Lower = Homunculus_policy.Lower

type policy_result = {
  policy : Policy.t;
  tenant_models : (Policy.tenant * model_result) list;
  composed : Lower.t;
}

let shared_budget (platform : Platform.t) n =
  if n <= 1 then platform
  else
    match platform.Platform.target with
    | Platform.Tofino d ->
        (* One guard table per tenant comes off the top; each member then
           searches against an even slice of what remains. *)
        let per = Stdlib.max 2 ((d.Tofino.n_tables - n) / n) in
        Platform.with_tables platform per
    | Platform.Taurus g ->
        let cols = Stdlib.max 2 (g.Taurus.cols / n) in
        Platform.with_resources platform ~rows:g.Taurus.rows ~cols
    | Platform.Fpga _ -> platform

let compile_policy ?(options = default_options) platform policy =
  let policy = Policy.normalize policy in
  let tenants = Policy.tenants policy in
  if tenants = [] then
    invalid_arg "Compiler.compile_policy: policy normalizes to drop";
  let member_platform = shared_budget platform (List.length tenants) in
  (* Search each distinct spec once against the budget slice; tenants
     instantiating the same spec share the winner. *)
  let searched = ref [] in
  let result_for spec =
    let name = Model_spec.name spec in
    match List.assoc_opt name !searched with
    | Some r -> r
    | None ->
        let r = search_model ~options member_platform spec in
        searched := (name, r) :: !searched;
        r
  in
  let tenant_models =
    List.map (fun (t : Policy.tenant) -> (t, result_for t.Policy.spec)) tenants
  in
  let inputs =
    List.map
      (fun ((t : Policy.tenant), (r : model_result)) ->
        Lower.input_of_tenant t ~model:r.artifact.Evaluator.model_ir)
      tenant_models
  in
  match Lower.compose platform inputs with
  | Error e -> Error e
  | Ok composed -> Ok { policy; tenant_models; composed }

(* Fusion pass: fold parallel compositions of fusable specs into one spec
   (paper §3.2.5). Only Par nodes fuse — sequential models see different
   upstream data by construction. *)
let rec apply_fusion ~threshold schedule =
  match schedule with
  | Schedule.Model _ -> schedule
  | Schedule.Seq (a, b) ->
      Schedule.Seq (apply_fusion ~threshold a, apply_fusion ~threshold b)
  | Schedule.Par (a, b) -> (
      let a = apply_fusion ~threshold a and b = apply_fusion ~threshold b in
      match (a, b) with
      | Schedule.Model sa, Schedule.Model sb
        when Model_spec.name sa <> Model_spec.name sb
             && Fusion.can_fuse ~threshold sa sb ->
          Schedule.Model
            (Fusion.fuse
               ~name:(Model_spec.name sa ^ "+" ^ Model_spec.name sb)
               sa sb)
      | _ -> Schedule.Par (a, b))

let generate ?(options = default_options) platform schedule =
  let schedule =
    match options.fusion_threshold with
    | Some threshold -> apply_fusion ~threshold schedule
    | None -> schedule
  in
  (* Search each distinct spec once; chained copies share the result. *)
  let specs = Schedule.models schedule in
  let distinct =
    List.fold_left
      (fun acc spec ->
        if List.exists (fun s -> Model_spec.name s = Model_spec.name spec) acc
        then acc
        else spec :: acc)
      [] specs
    |> List.rev
  in
  let models = List.map (search_model ~options platform) distinct in
  let result_for name =
    List.find (fun r -> Model_spec.name r.spec = name) models
  in
  let combined =
    Schedule.combine schedule ~perf:(Platform.perf platform)
      ~estimate:(fun spec ->
        (result_for (Model_spec.name spec)).artifact.Evaluator.verdict)
  in
  let bundle_code =
    let bundle_models () =
      List.map
        (fun spec ->
          (result_for (Model_spec.name spec)).artifact.Evaluator.model_ir)
        specs
    in
    match (options.emit_code, platform.Platform.target, specs) with
    | true, (Platform.Taurus _ | Platform.Fpga _), _ :: _ :: _ ->
        Some (Spatial.emit_bundle ~name:"pipeline" (bundle_models ()))
    | true, Platform.Tofino _, _ :: _ :: _ -> (
        (* Duplicate specs produce duplicate table names; namespace them. *)
        let models =
          List.mapi
            (fun i m -> Model_ir.with_name m (Printf.sprintf "m%d_%s" i (Model_ir.name m)))
            (bundle_models ())
        in
        try
          Some
            (P4_ir.print
               (P4_ir.merge ~name:"pipeline" (List.map P4gen.program_of models)))
        with Invalid_argument _ -> None (* e.g. a DNN slipped in *))
    | _ -> None
  in
  { platform; schedule; models; combined; bundle_code }
