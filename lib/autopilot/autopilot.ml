module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset
module Metrics = Homunculus_ml.Metrics
module Inference = Homunculus_backends.Inference
module Model_ir = Homunculus_backends.Model_ir
module Model_spec = Homunculus_alchemy.Model_spec
module Platform = Homunculus_alchemy.Platform
module Bo = Homunculus_bo
module Compiler = Homunculus_core.Compiler
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor
module Faultplan = Homunculus_resilience.Faultplan
module Engine = Homunculus_serve.Engine
module Monitor = Homunculus_serve.Monitor
module Updater = Homunculus_serve.Updater

type config = {
  seed : int;
  platform : Platform.t;
  spec_name : string;
  algorithms : Model_spec.algorithm list;
  n_classes : int;
  bo_settings : Bo.Optimizer.settings;
  fresh_evals : int;
  budget_s : float option;
  journal_dir : string;
  min_examples : int;
  holdout_frac : float;
  min_gain : float;
  max_retries : int;
  backoff_windows : int;
  backoff_max_windows : int;
  faults : Faultplan.t;
}

let default_config ~platform ~journal_dir =
  {
    seed = 42;
    platform;
    spec_name = "autopilot";
    algorithms = [ Model_spec.Tree ];
    n_classes = 2;
    bo_settings = { Bo.Optimizer.default_settings with Bo.Optimizer.n_init = 3 };
    fresh_evals = 4;
    budget_s = None;
    journal_dir;
    min_examples = 60;
    holdout_frac = 0.3;
    min_gain = 0.02;
    max_retries = 1;
    backoff_windows = 1;
    backoff_max_windows = 8;
    faults = Faultplan.create [];
  }

type outcome =
  | Installed of { incumbent_f1 : float; challenger_f1 : float }
  | Rejected of { incumbent_f1 : float; challenger_f1 : float }
  | Budget_exhausted
  | Infeasible of string
  | Too_few_examples of { have : int; need : int }
  | Backing_off of { until_window : int }

type event = {
  window : int;
  reason : string;
  generation : int;
  outcome : outcome;
  replayed : int;
  fresh : int;
  wall_s : float;
}

let outcome_to_string = function
  | Installed { incumbent_f1; challenger_f1 } ->
      Printf.sprintf "installed incumbent_f1=%.4f challenger_f1=%.4f"
        incumbent_f1 challenger_f1
  | Rejected { incumbent_f1; challenger_f1 } ->
      Printf.sprintf "rejected incumbent_f1=%.4f challenger_f1=%.4f"
        incumbent_f1 challenger_f1
  | Budget_exhausted -> "budget-exhausted"
  | Infeasible msg -> Printf.sprintf "infeasible (%s)" msg
  | Too_few_examples { have; need } ->
      Printf.sprintf "too-few-examples have=%d need=%d" have need
  | Backing_off { until_window } ->
      Printf.sprintf "backing-off until_window=%d" until_window

(* Deliberately omits [replayed], [fresh], and [wall_s]: a resumed run
   replays more (and journals less) than the uninterrupted run it is
   bit-identical to, so those are accounting, not results — drivers print
   them to stderr. *)
let event_to_string e =
  Printf.sprintf "autopilot window=%d gen=%d reason=%s %s" e.window
    e.generation e.reason (outcome_to_string e.outcome)

(* {2 Generation journals} *)

let journal_path ~dir ~generation =
  Filename.concat dir (Printf.sprintf "research-%03d.jsonl" generation)

let done_path path = path ^ ".done"

let parse_generation file =
  let prefix = "research-" and suffix = ".jsonl" in
  let pl = String.length prefix and sl = String.length suffix in
  let fl = String.length file in
  if
    fl > pl + sl
    && String.sub file 0 pl = prefix
    && String.sub file (fl - sl) sl = suffix
  then int_of_string_opt (String.sub file pl (fl - pl - sl))
  else None

let generation_files ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun file ->
           match parse_generation file with
           | None -> None
           | Some g ->
               let path = Filename.concat dir file in
               Some (g, path, Sys.file_exists (done_path path)))
    |> List.sort (fun (a, _, _) (b, _, _) -> Stdlib.compare a b)

(* Raw (duplicate-preserving) evaluation-record counts per scope, maxed
   across scopes. A completed generation journals one record per proposal
   that was not already a replay hit, so summing these over the completed
   generations is exactly the length of the proposal prefix the next search
   will re-derive into cache hits — the [~replayed] argument of
   {!Bo.Optimizer.continuation}. Deduped counts would under-count: a search
   that proposed the same configuration twice journals twice and replays
   twice. *)
let proposals_recorded paths =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun path ->
      let recs, _ = Journal.read path in
      List.iter
        (fun (r : Journal.record) ->
          Hashtbl.replace tbl r.scope
            (1 + Option.value (Hashtbl.find_opt tbl r.scope) ~default:0))
        recs)
    paths;
  Hashtbl.fold (fun _ v acc -> Stdlib.max v acc) tbl 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_done path =
  let oc =
    open_out_gen [ Open_creat; Open_wronly; Open_trunc ] 0o644 (done_path path)
  in
  close_out oc

(* {2 The controller} *)

type t = {
  cfg : config;
  updater : Updater.t;
  mutable failures : int;
  mutable next_allowed_window : int;
  mutable rev_events : event list;
}

let create cfg ~updater =
  if cfg.n_classes <= 0 then invalid_arg "Autopilot.create: n_classes <= 0";
  if cfg.min_examples < 2 then invalid_arg "Autopilot.create: min_examples < 2";
  if cfg.fresh_evals < 0 then invalid_arg "Autopilot.create: fresh_evals < 0";
  if cfg.holdout_frac <= 0. || cfg.holdout_frac >= 1. then
    invalid_arg "Autopilot.create: holdout_frac outside (0, 1)";
  if cfg.backoff_windows < 0 || cfg.backoff_max_windows < 0 then
    invalid_arg "Autopilot.create: negative backoff";
  if cfg.algorithms = [] then
    invalid_arg "Autopilot.create: empty algorithm shortlist";
  mkdir_p cfg.journal_dir;
  {
    cfg;
    updater;
    failures = 0;
    next_allowed_window = 0;
    rev_events = [];
  }

let events t = List.rev t.rev_events
let consecutive_failures t = t.failures

let push t ~window ~reason ~generation ~outcome ~replayed ~fresh ~wall_s =
  t.rev_events <-
    { window; reason; generation; outcome; replayed; fresh; wall_s }
    :: t.rev_events

(* The same seed splits every generation's snapshot, so a process restart
   that replays the same serving trace re-derives the identical spec. *)
let spec_of_snapshot cfg ~xs ~ys =
  let n = Array.length xs in
  let rng = Rng.create cfg.seed in
  let perm = Rng.permutation rng n in
  let n_test =
    Stdlib.max 1 (int_of_float (cfg.holdout_frac *. float_of_int n))
  in
  let n_train = n - n_test in
  let slice off k =
    ( Array.init k (fun i -> xs.(perm.(off + i))),
      Array.init k (fun i -> ys.(perm.(off + i))) )
  in
  let x_test, y_test = slice 0 n_test in
  let x_train, y_train = slice n_test n_train in
  let dataset x y = Dataset.create ~x ~y ~n_classes:cfg.n_classes () in
  Model_spec.make ~name:cfg.spec_name ~algorithms:cfg.algorithms
    ~loader:(fun () ->
      Model_spec.data
        ~train:(dataset x_train y_train)
        ~test:(dataset x_test y_test))
    ()

let f1_on cfg model ~x ~y =
  let pred = Inference.predict_all model x in
  if cfg.n_classes = 2 then Metrics.f1 ~pred ~truth:y ()
  else Metrics.macro_f1 ~n_classes:cfg.n_classes ~pred ~truth:y

let backoff_delay cfg ~failures =
  if cfg.backoff_windows = 0 || failures <= 0 then 0
  else begin
    (* backoff_windows * 2^(failures-1), saturated at the ceiling without
       ever overflowing *)
    let d = ref cfg.backoff_windows in
    for _ = 2 to failures do
      if !d < cfg.backoff_max_windows then d := !d * 2
    done;
    Stdlib.min cfg.backoff_max_windows !d
  end

let note_failure t ~window =
  t.failures <- t.failures + 1;
  let delay = backoff_delay t.cfg ~failures:t.failures in
  if delay > 0 then
    t.next_allowed_window <-
      Stdlib.max t.next_allowed_window (window + 1 + delay)

let run_research t ~window ~reason ~incumbent ~xs ~ys =
  let cfg = t.cfg in
  let gens = generation_files ~dir:cfg.journal_dir in
  (* A journal without its [.done] marker is a crashed or budget-killed
     search: resume that generation in place. Its partial records replay as
     a cache-hit prefix, but the continuation arithmetic counts completed
     generations only — that is what makes the resumed run's settings (and
     therefore its proposal sequence) identical to the uninterrupted one. *)
  let generation =
    match List.rev gens with
    | (g, _, false) :: _ -> g
    | (g, _, true) :: _ -> g + 1
    | [] -> 0
  in
  let replayed_prior =
    proposals_recorded
      (List.filter_map
         (fun (g, p, completed) ->
           if completed && g < generation then Some p else None)
         gens)
  in
  let replay =
    match gens with
    | [] -> None
    | _ -> Some (Journal.merge (List.map (fun (_, p, _) -> Journal.load p) gens))
  in
  let settings =
    Bo.Optimizer.continuation cfg.bo_settings ~replayed:replayed_prior
      ~fresh:cfg.fresh_evals
  in
  let path = journal_path ~dir:cfg.journal_dir ~generation in
  let journal = Journal.open_ path in
  let supervisor =
    Supervisor.create
      ~settings:
        { Supervisor.default_settings with Supervisor.max_retries = cfg.max_retries }
      ~journal ?replay ~faults:cfg.faults ()
  in
  let options =
    {
      Compiler.default_options with
      Compiler.seed = cfg.seed;
      bo_settings = settings;
      emit_code = false;
      supervisor = Some supervisor;
    }
  in
  let spec = spec_of_snapshot cfg ~xs ~ys in
  let budget_s =
    if Faultplan.research_timeout_at cfg.faults ~generation then Some (-1.)
    else cfg.budget_s
  in
  (* A simulated crash (Faultplan.Killed) escapes through [finally]: the
     journal is flushed and closed, the exception reaches the serving loop's
     driver, and the next incarnation resumes this generation. *)
  let outcome, (stats : Compiler.research_stats) =
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () -> Compiler.research ~options ?budget_s cfg.platform spec)
  in
  let fresh = Journal.appended journal in
  let finish outcome reaction =
    push t ~window ~reason ~generation ~outcome ~replayed:stats.replayed
      ~fresh ~wall_s:stats.wall_s;
    reaction
  in
  match outcome with
  | Compiler.Research_won result ->
      write_done path;
      let data = Model_spec.load spec in
      let incumbent_f1 =
        f1_on cfg incumbent ~x:data.test.Dataset.x ~y:data.test.Dataset.y
      in
      let challenger_f1 = result.Compiler.artifact.objective in
      if Updater.accepts ~min_gain:cfg.min_gain ~incumbent_f1 ~challenger_f1
      then begin
        t.failures <- 0;
        finish
          (Installed { incumbent_f1; challenger_f1 })
          (Engine.Install
             {
               model = result.Compiler.artifact.model_ir;
               incumbent_f1;
               challenger_f1;
             })
      end
      else begin
        note_failure t ~window;
        finish (Rejected { incumbent_f1; challenger_f1 }) Engine.Keep
      end
  | Compiler.Research_infeasible msg ->
      write_done path;
      note_failure t ~window;
      finish (Infeasible msg) Engine.Keep
  | Compiler.Research_budget ->
      note_failure t ~window;
      finish Budget_exhausted Engine.Keep

let on_drift t ~now:_ ~(drift : Monitor.drift) ~incumbent =
  let window = drift.Monitor.window in
  let reason = drift.Monitor.reason in
  if t.cfg.backoff_windows > 0 && window < t.next_allowed_window then begin
    push t ~window ~reason ~generation:(-1)
      ~outcome:(Backing_off { until_window = t.next_allowed_window })
      ~replayed:0 ~fresh:0 ~wall_s:0.;
    Engine.Keep
  end
  else begin
    let xs, ys = Updater.snapshot t.updater in
    let have = Array.length xs in
    if have < t.cfg.min_examples then begin
      push t ~window ~reason ~generation:(-1)
        ~outcome:(Too_few_examples { have; need = t.cfg.min_examples })
        ~replayed:0 ~fresh:0 ~wall_s:0.;
      Engine.Keep
    end
    else run_research t ~window ~reason ~incumbent ~xs ~ys
  end

let hook t : Engine.research_hook =
 fun ~now ~drift ~incumbent -> on_drift t ~now ~drift ~incumbent
