(* One part of one benchmark run: one workload, one seed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --part compile|serve --winner PATH

   run.py runs the compile part, then the serve part, each in its own
   process. The compile part builds its inputs several times, plays one
   warm-up round, then measured rounds for S seconds (at least three): a
   supervised search under a journal, then resumes of that search from
   its completed journal. It saves the winner to PATH. The serve part loads
   the winner and, in the same way, plays rounds of open-loop throughput
   passes, passes that time every Engine.step, and passes whose monitor
   raises drift alarms that the updater answers with retrain-and-swap.
   Every timing is the median of all its samples.

   With --trace 1 a part plays a short untraced run of itself, then the
   same phases under spans recorded around calls into each layer's public
   functions, plus direct probes of those functions, and reports
   per-layer figures.

   The last stdout line is the part's result object; the line before it
   carries run context (the samples behind each median). Every output
   check that fails is listed on stderr and makes the part exit 1. *)

module Bo = Homunculus_bo
module Par = Homunculus_par.Par
module Rng = Homunculus_util.Rng
module Json = Homunculus_util.Json
module Metrics = Homunculus_ml.Metrics
module Runtime = Homunculus_backends.Runtime
module Inference = Homunculus_backends.Inference
module Serve_eval = Homunculus_check.Serve_eval
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor
open Homunculus_alchemy
open Homunculus_core
open Homunculus_serve
open Perfbench

let now_ns = Monotonic_clock.now

(* Each timed phase starts from a collected heap, so no phase pays for the
   garbage an earlier one left. *)
let settle () = Gc.full_major ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let s_since t0 = ns_since t0 *. 1e-9

(* ------------------------------------------------------------------ *)
(* Output checks *)

let failures = ref []

let check name ok =
  if not ok then begin
    failures := name :: !failures;
    Printf.eprintf "check failed: %s\n%!" name
  end

(* ------------------------------------------------------------------ *)
(* Compile *)

let options (w : Workload.t) ?supervisor ?dispatch ?(emit_code = true) () =
  {
    Compiler.default_options with
    Compiler.bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = w.n_init;
        n_iter = w.n_iter;
        batch_size = 2;
      };
    supervisor;
    dispatch;
    emit_code;
  }

(* Everything a search decides, as one comparable string: every
   per-algorithm history (floats by their bits), the winner, the code. *)
let fingerprint (r : Compiler.model_result) =
  let b = Buffer.create 4096 in
  let float f = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float f)) in
  List.iter
    (fun (algorithm, h) ->
      Buffer.add_string b (Model_spec.algorithm_to_string algorithm);
      List.iter
        (fun (e : Bo.History.entry) ->
          Buffer.add_string b (Bo.Config.to_string e.config);
          float e.objective;
          Buffer.add_string b (Printf.sprintf "%b%b" e.feasible e.pruned);
          List.iter (fun (k, v) -> Buffer.add_string b k; float v) e.metadata;
          Buffer.add_char b '\n')
        (Bo.History.entries h))
    r.histories;
  let a = r.artifact in
  Buffer.add_string b (Model_spec.algorithm_to_string a.Evaluator.algorithm);
  Buffer.add_string b (Bo.Config.to_string a.Evaluator.config);
  float a.Evaluator.objective;
  Buffer.add_string b (Option.value r.code ~default:"");
  Buffer.contents b

let evaluations (r : Compiler.model_result) =
  List.fold_left (fun n (_, h) -> n + Bo.History.length h) 0 r.histories

let fresh_journal path =
  if Sys.file_exists path then Sys.remove path;
  Journal.open_ path

(* search_s: a supervised search appending to a fresh journal, as
   [homc search --journal] runs it, through code emission. *)
let search w (inputs : Workload.inputs) ~journal_path =
  settle ();
  let t0 = now_ns () in
  let journal = fresh_journal journal_path in
  let sup = Supervisor.create ~journal () in
  let r = Compiler.search_model ~options:(options w ~supervisor:sup ()) w.platform inputs.spec in
  Journal.close journal;
  (s_since t0, r, Supervisor.failure_count sup)

(* resume_s: the same search re-driven against its completed journal. *)
let resume w (inputs : Workload.inputs) ~journal_path =
  settle ();
  let t0 = now_ns () in
  let replay = Journal.load journal_path in
  let sup = Supervisor.create ~replay () in
  let r = Compiler.search_model ~options:(options w ~supervisor:sup ()) w.platform inputs.spec in
  (s_since t0, r, Supervisor.replayed_count sup)

(* ------------------------------------------------------------------ *)
(* Serve *)

let engine_config (w : Workload.t) ~trace =
  { Engine.default_config with Engine.mode = w.mode; trace_capacity = trace }

let n_features (inputs : Workload.inputs) =
  Array.length inputs.events.(0).Stream.features

(* Verdict mismatches against an independent re-derivation: the pure
   Runtime replay oracle for the quantized drain, Inference.predict_all on
   the same inputs (per model epoch) for the floating-point drain. *)
let verdict_mismatches (w : Workload.t) engine =
  match w.mode with
  | Engine.Quantized -> List.length (Serve_eval.replay_quantized engine).Serve_eval.mismatches
  | Engine.Reference ->
      let tr = Engine.trace engine in
      let models = Engine.epoch_models engine in
      let bad = ref 0 in
      Array.iteri
        (fun epoch model ->
          let idx = List.filter (fun i -> tr.epochs.(i) = epoch) (List.init tr.n Fun.id) in
          let xs = Array.of_list (List.map (fun i -> tr.xs.(i)) idx) in
          let preds = Inference.predict_all model xs in
          List.iteri (fun j i -> if preds.(j) <> tr.verdicts.(i) then incr bad) idx)
        models;
      !bad

let f1 ~pred ~truth = Metrics.f1 ~pred ~truth ()

(* Output checks need each served packet's trace, and copying traces out
   churns the heap that later passes are timed on; so only the warm-up
   passes are traced and checked, and measured passes must reproduce their
   packet counts. *)
type outputs = {
  virtual_p99_ms : float;
  f1 : float;
  mismatches : int;
  miss_rate : float;
}

type serve = {
  ips : float;
  offered : int;
  dropped : int;
  outputs : outputs option;  (** traced passes only *)
}

(* serve_ips: one open-loop drive of the whole trace through the drain. *)
let serve_pass ~traced (w : Workload.t) (inputs : Workload.inputs) model =
  let n = Array.length inputs.events in
  let monitor = Monitor.create ~n_classes:w.n_classes () in
  let engine =
    Engine.create ~config:(engine_config w ~trace:(if traced then n else 0)) ~model ~monitor ()
  in
  settle ();
  let r = Loadgen.drive engine ~rate:inputs.rate ~process:w.process inputs.events in
  check "offered = served + dropped" (r.offered = r.served + r.dropped);
  let outputs =
    if not traced then None
    else begin
      let tr = Engine.trace engine in
      check "every served packet traced" (tr.n = r.served);
      let miss_rate =
        match Engine.current_runtime engine with
        | Some rt -> float_of_int (Runtime.miss_count rt) /. float_of_int r.served
        | None -> 0.
      in
      Some
        {
          virtual_p99_ms = 1e3 *. Pstats.tail ~p:99. r.latencies;
          f1 = f1 ~pred:tr.verdicts ~truth:tr.truths;
          mismatches = verdict_mismatches w engine;
          miss_rate;
        }
    end
  in
  { ips = r.sustained_ips; offered = r.offered; dropped = r.dropped; outputs }

let drop_rate s = float_of_int s.dropped /. float_of_int s.offered

(* step_ns_p50/p99: every Engine.step of a separate pass, timed alone into
   [samples] (one buffer per process, reused). *)
let step_pass (w : Workload.t) (inputs : Workload.inputs) model ~samples =
  let monitor = Monitor.create ~n_classes:w.n_classes () in
  let engine = Engine.create ~config:(engine_config w ~trace:0) ~model ~monitor () in
  settle ();
  Array.iteri
    (fun i e ->
      let t0 = now_ns () in
      Engine.step engine e;
      samples.(i) <- ns_since t0)
    inputs.events;
  ignore (Engine.finish engine : Engine.summary);
  (Pstats.band_mean ~p:50. ~half_width:2.5 samples, Pstats.band_mean ~p:99. ~half_width:0.5 samples)

type swap = {
  stall_ms : float;  (** mean wall time of the steps that retrained on an alarm *)
  alarms : int;
  swap_offered : int;
  swap_mismatches : int;
  drifts : int;
  swaps : int;
  swap_steps : (int64 * int64) list;
  updater : Updater.t;
  final_model : Homunculus_backends.Model_ir.t;
}

(* swap_stall_ms: serve with the updater attached; a step that consumes a
   drift alarm retrains, validates and (on acceptance) rebuilds the tables
   on the serving thread. Workloads whose traffic does not drift get their
   alarms forced at fixed monitor windows. *)
let swap_pass ~traced (w : Workload.t) (inputs : Workload.inputs) model ~seed =
  let n = Array.length inputs.events in
  let monitor = Monitor.create ~n_classes:w.n_classes () in
  List.iter (fun window -> Monitor.force_drift_at monitor ~window) w.forced_drifts;
  let updater =
    Updater.create (Rng.create seed) ~n_features:(n_features inputs)
      ~n_classes:w.n_classes ()
  in
  let engine =
    Engine.create
      ~config:(engine_config w ~trace:(if traced then n else 0))
      ~model ~monitor ~updater ()
  in
  (* A decision with a finite incumbent score went through retraining and
     validation; alarms declined up front (swap cap, short buffer) cost
     nothing and are not stalls. Retraining takes milliseconds, so only
     steps slower than [slow_ns] are looked at. *)
  let retrained () =
    List.length
      (List.filter (fun d -> Float.is_finite d.Updater.incumbent_f1) (Updater.decisions updater))
  in
  let slow_ns = 1e6 in
  let counted = ref 0 and steps = ref [] and alarms = ref 0 in
  let timed f =
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    if Int64.to_float (Int64.sub t1 t0) > slow_ns then begin
      let now = retrained () in
      if now > !counted then begin
        alarms := !alarms + (now - !counted);
        counted := now;
        steps := (t0, t1) :: !steps
      end
    end;
    r
  in
  settle ();
  Array.iter (fun e -> timed (fun () -> Engine.step engine e)) inputs.events;
  let summary = timed (fun () -> Engine.finish engine) in
  check "swap pass retrained on a drift alarm" (!alarms > 0);
  check "every retraining step was timed" (!counted = retrained ());
  check "swap pass: offered = served + dropped"
    (summary.offered = summary.served + summary.dropped);
  let stall_ns =
    List.fold_left (fun acc (a, b) -> acc +. Int64.to_float (Int64.sub b a)) 0. !steps
  in
  {
    stall_ms = stall_ns *. 1e-6 /. float_of_int (Stdlib.max 1 !alarms);
    alarms = !alarms;
    swap_offered = summary.offered;
    swap_mismatches = (if traced then verdict_mismatches w engine else 0);
    drifts = List.length summary.drift_events;
    swaps = List.length summary.swaps;
    swap_steps = List.rev !steps;
    updater;
    final_model = summary.final_model;
  }

(* ------------------------------------------------------------------ *)
(* Sessions *)

(* Repeat [f] until [budget_s] seconds have passed and it has run at least
   [min] times, so a slow host costs samples rather than run time. *)
let repeat ~min ~budget_s f =
  let t0 = now_ns () in
  let rec go acc n =
    if n >= min && s_since t0 >= budget_s then Array.of_list (List.rev acc)
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let concat_map f xs = Array.concat (List.map f (Array.to_list xs))

type compiled = {
  search_s : float array;
  resume_s : float array;
  result : Compiler.model_result;
  fp : string;
  evals : int;  (** evaluations committed by every search *)
  failed_evals : int;
}

(* Compile rounds: one untimed warm-up search and resume, then rounds of
   one search with resumes of the journal for a fixed time on either side,
   until [budget_s] has passed and at least [min_rounds] searches were
   timed. Searches must not change between rounds. *)
let compile_rounds w inputs ~journal_path ~min_rounds ~budget_s =
  let first = ref None and evals = ref 0 and failed = ref 0 in
  let resume_checked () =
    let resume_s, resumed, replayed = resume w inputs ~journal_path in
    let r, fp = Option.get !first in
    check "resume history and winner bit-identical" (fingerprint resumed = fp);
    check "resume replayed every evaluation" (replayed = evaluations r);
    resume_s
  in
  let search_checked () =
    let search_s, r, failures = search w inputs ~journal_path in
    let fp = fingerprint r in
    (match !first with
    | None -> first := Some (r, fp)
    | Some (_, fp0) -> check "search deterministic across rounds" (fp = fp0));
    evals := !evals + evaluations r;
    failed := !failed + failures;
    search_s
  in
  ignore (search_checked ());
  ignore (resume_checked ());
  (* Resumes run on both sides of each search (the journals are identical),
     so they sample twice as many moments of the run as searches do. *)
  let rounds =
    repeat ~min:min_rounds ~budget_s (fun () ->
        let before = repeat ~min:2 ~budget_s:0.5 resume_checked in
        let search_s = search_checked () in
        let after = repeat ~min:2 ~budget_s:0.5 resume_checked in
        (search_s, Array.append before after))
  in
  let result, fp = Option.get !first in
  {
    search_s = Array.map fst rounds;
    resume_s = concat_map snd rounds;
    result;
    fp;
    evals = !evals;
    failed_evals = !failed;
  }

type served = {
  serve : serve array;
  outputs : outputs;  (** of the traced warm-up pass *)
  step_p50 : float array;
  step_p99 : float array;
  steps : int;  (** samples per step pass *)
  swap : swap array;
  offered : int;
  mismatches : int;
}

(* Serve rounds: every pass once as an untimed, traced and checked warm-up,
   then short rounds of throughput, step-timing and swap passes, each
   repeated for a fixed time, until [budget_s] has passed and at least
   twice [min_rounds] rounds ran. Measured passes must reproduce the
   warm-up's packet counts and swap decisions. *)
let serve_rounds w (inputs : Workload.inputs) model ~seed ~min_rounds ~budget_s =
  let samples = Array.make (Array.length inputs.events) 0. in
  let round ~warm_up =
    let passes ~min ~budget_s f = if warm_up then [| f () |] else repeat ~min ~budget_s f in
    let serve = passes ~min:1 ~budget_s:0.5 (fun () -> serve_pass ~traced:warm_up w inputs model) in
    let steps = passes ~min:1 ~budget_s:0.4 (fun () -> step_pass w inputs model ~samples) in
    let swap =
      passes ~min:1 ~budget_s:0.5 (fun () -> swap_pass ~traced:warm_up w inputs model ~seed)
    in
    (serve, steps, swap)
  in
  let warm_serve, _, warm_swap = round ~warm_up:true in
  (* Every pass type recurs every ~1.5 s, so each samples the whole part. *)
  let rounds = repeat ~min:(2 * min_rounds) ~budget_s (fun () -> round ~warm_up:false) in
  let serve = concat_map (fun (s, _, _) -> s) rounds in
  let steps = concat_map (fun (_, st, _) -> st) rounds in
  let swap = concat_map (fun (_, _, sw) -> sw) rounds in
  let s0 = warm_serve.(0) and w0 = warm_swap.(0) in
  Array.iter
    (fun (s : serve) ->
      check "served packet counts deterministic across passes"
        (s.offered = s0.offered && s.dropped = s0.dropped))
    serve;
  Array.iter
    (fun p ->
      check "swap decisions deterministic across passes"
        (p.alarms = w0.alarms && p.drifts = w0.drifts && p.swaps = w0.swaps))
    swap;
  let outputs = Option.get s0.outputs in
  let mismatches = outputs.mismatches + w0.swap_mismatches in
  check "zero verdict mismatches against the oracle" (mismatches = 0);
  let sum f xs = Array.fold_left (fun a x -> a + f x) 0 xs in
  {
    serve;
    outputs;
    step_p50 = Array.map fst steps;
    step_p99 = Array.map snd steps;
    steps = Array.length samples;
    swap;
    offered =
      s0.offered + w0.swap_offered + sum (fun (s : serve) -> s.offered) serve
      + sum (fun p -> p.swap_offered) swap;
    mismatches;
  }

let winner_f1 (inputs : Workload.inputs) (r : Compiler.model_result) =
  let h = inputs.holdout in
  f1
    ~pred:(Inference.predict_all r.artifact.Evaluator.model_ir h.Homunculus_ml.Dataset.x)
    ~truth:h.Homunculus_ml.Dataset.y

(* ------------------------------------------------------------------ *)
(* Set-up *)

let same_inputs (a : Workload.inputs) (b : Workload.inputs) =
  let da = Model_spec.load a.spec and db = Model_spec.load b.spec in
  let same_data (x : Homunculus_ml.Dataset.t) (y : Homunculus_ml.Dataset.t) =
    x.Homunculus_ml.Dataset.x = y.Homunculus_ml.Dataset.x
    && x.Homunculus_ml.Dataset.y = y.Homunculus_ml.Dataset.y
  in
  same_data da.train db.train && same_data da.test db.test
  && same_data a.holdout b.holdout && a.events = b.events
  && a.rate = b.rate

(* setup_s: build the seed's inputs from scratch, several times; every
   build must be bit-identical to the first. *)
let setup w ~seed ~packets =
  let events_per_s = ref 0. in
  let on_traffic ~events ~seconds = events_per_s := float_of_int events /. seconds in
  let first = ref None in
  let times =
    repeat ~min:5 ~budget_s:1.5 (fun () ->
        settle ();
        let t0 = now_ns () in
        let inputs = Workload.inputs ~on_traffic w ~seed ~packets in
        let dt = s_since t0 in
        (match !first with
        | None -> first := Some inputs
        | Some f -> check "set-up bit-identical for a fixed seed" (same_inputs f inputs));
        dt)
  in
  (Option.get !first, times, !events_per_s)

(* ------------------------------------------------------------------ *)
(* Traced round *)

let traced_phase spans ~phase ~lo ~hi = Spans.coverage (Spans.spans spans) ~phase ~lo ~hi

(* The DSE under spans. Evaluations travel through the public dispatch hook
   to Compiler.worker_eval on the default pool, so the calling domain's
   time outside evaluation (proposal, surrogate fit, scoring, commit) is
   the search span's self time. Journal records are appended on the
   calling domain, as a distributed worker appends its own. *)
let traced_search spans (w : Workload.t) (inputs : Workload.inputs) ~journal_path =
  Evaluator.Timing.reset ();
  let journal = fresh_journal journal_path in
  let worker_options = options w ~supervisor:(Supervisor.create ()) () in
  let jobs = Par.jobs (Par.default ()) in
  let busy_ns = ref 0. and slots_ns = ref 0. and minor_words = ref 0. in
  let append_ns = ref 0. and appends = ref 0 and last_end = ref 0L in
  let specs = [ inputs.spec ] in
  let phase = "dse" in
  let lo = now_ns () in
  let r =
    Spans.within spans ~phase "core.search_model" (fun root ->
        let dispatch ~scope batch =
          Spans.within spans ~phase ~parent:root "par.batch" (fun bid ->
              let t_batch = now_ns () in
              let results =
                Par.run_in_parallel
                  (Array.map
                     (fun (index, config) () ->
                       let w0 = Gc.minor_words () in
                       Spans.within spans ~phase ~parent:bid "ml.worker_eval" (fun _ ->
                           let t0 = now_ns () in
                           let ev =
                             Compiler.worker_eval ~options:worker_options ~platform:w.platform
                               ~specs ~scope ~index ~config
                           in
                           (ev, ns_since t0, Gc.minor_words () -. w0)))
                     batch)
              in
              slots_ns := !slots_ns +. (ns_since t_batch *. float_of_int jobs);
              Array.iteri
                (fun i (ev, busy, words) ->
                  busy_ns := !busy_ns +. busy;
                  minor_words := !minor_words +. words;
                  let index, config = batch.(i) in
                  let t0 = now_ns () in
                  Spans.within spans ~phase ~parent:bid "resilience.journal_append" (fun _ ->
                      ignore
                        (Journal.append journal
                           {
                             Journal.scope;
                             index;
                             config;
                             objective = ev.Bo.Optimizer.objective;
                             feasible = ev.Bo.Optimizer.feasible;
                             pruned = ev.Bo.Optimizer.pruned;
                             metadata = ev.Bo.Optimizer.metadata;
                             failure = None;
                             kind = Journal.Exact;
                           }
                          : int));
                  append_ns := !append_ns +. ns_since t0;
                  incr appends)
                results;
              last_end := now_ns ();
              Array.map (fun (ev, _, _) -> ev) results)
        in
        let r =
          Compiler.search_model
            ~options:(options w ~dispatch ~emit_code:false ())
            w.platform inputs.spec
        in
        (* the winner's rebuild from its config-derived seed *)
        Spans.record spans ~id:(Spans.fresh_id spans) ~phase ~parent:root
          ~start_ns:!last_end ~stop_ns:(now_ns ()) "core.finalize";
        let code =
          Spans.within spans ~phase ~parent:root "core.emit" (fun _ ->
              Compiler.emit_code w.platform r.artifact.Evaluator.model_ir)
        in
        { r with code = Some code })
  in
  Journal.close journal;
  let hi = now_ns () in
  let timing = Evaluator.Timing.snapshot () in
  let all = Spans.spans spans in
  let root =
    List.find (fun (s : Spans.span) -> s.name = "core.search_model" && s.phase = phase) all
  in
  let emit = List.find (fun (s : Spans.span) -> s.name = "core.emit") all in
  let evals = float_of_int timing.Evaluator.Timing.evaluations in
  let figures =
    [
      ("core.evaluations", evals, "count");
      ("ml.train_s", timing.train_s, "s");
      ("core.lower_s", timing.lower_s, "s");
      ("backends.estimate_s", timing.estimate_s, "s");
      ("core.emit_ms", Int64.to_float (Spans.duration_ns emit) *. 1e-6, "ms");
      ("ml.minor_words_per_eval", !minor_words /. float_of_int !appends, "words");
      ("bo.propose_s", Int64.to_float (Spans.self_ns all root) *. 1e-9, "s");
      ("par.busy_frac", !busy_ns /. !slots_ns, "ratio");
      ("journal.append_us", !append_ns *. 1e-3 /. float_of_int !appends, "us");
      ("journal.records", float_of_int !appends, "count");
      ("trace.dse_coverage", traced_phase spans ~phase ~lo ~hi, "ratio");
    ]
  in
  (Int64.to_float (Int64.sub hi lo) *. 1e-9, r, figures)

(* Surrogate refit and acquisition scoring, called directly on the
   winner's final history. *)
let bo_probes spans (w : Workload.t) (inputs : Workload.inputs) (r : Compiler.model_result) =
  let phase = "bo" in
  let x, y, feasible = Bo.History.training_arrays r.history in
  let fx = List.filteri (fun i _ -> feasible.(i)) (Array.to_list x) |> Array.of_list in
  let fy = List.filteri (fun i _ -> feasible.(i)) (Array.to_list y) |> Array.of_list in
  let fit () =
    let rng = Rng.create 1 in
    let s = Bo.Surrogate.fit rng ~x:fx ~y:fy () in
    let f = Bo.Feasibility.fit rng ~x ~feasible () in
    (s, f)
  in
  let fit_times =
    Array.init 3 (fun _ ->
        let t0 = now_ns () in
        ignore (Spans.within spans ~phase "bo.fit" (fun _ -> fit ()));
        ns_since t0)
  in
  let surrogate, feas = fit () in
  let input_dim = Homunculus_ml.Dataset.n_features (Model_spec.load inputs.spec).train in
  let space = Space_builder.build w.platform r.artifact.Evaluator.algorithm ~input_dim in
  let rng = Rng.create 2 in
  let pool = Array.init 200 (fun _ -> Bo.Design_space.sample rng space) in
  let best = Array.fold_left Float.max neg_infinity fy in
  let t0 = now_ns () in
  Spans.within spans ~phase "bo.score" (fun _ ->
      Array.iter
        (fun c ->
          let p = Bo.Design_space.encode space c in
          let mean, std = Bo.Surrogate.predict surrogate p in
          let ei = Bo.Acquisition.expected_improvement ~mean ~std ~best in
          ignore (Sys.opaque_identity (ei *. Bo.Feasibility.prob_feasible feas p)))
        pool);
  let score_ns = ns_since t0 /. float_of_int (Array.length pool) in
  [
    ("bo.fit_ms", Pstats.median fit_times *. 1e-6, "ms");
    ("bo.score_us", score_ns *. 1e-3, "us");
  ]

let traced_resume spans w (inputs : Workload.inputs) ~journal_path =
  let phase = "resume" in
  let sup = ref None in
  let t0 = now_ns () in
  let r, load_ns =
    Spans.within spans ~phase "core.search_model" (fun root ->
        let t0 = now_ns () in
        let replay =
          Spans.within spans ~phase ~parent:root "resilience.journal_load" (fun _ ->
              Journal.load journal_path)
        in
        let load_ns = ns_since t0 in
        let s = Supervisor.create ~replay () in
        sup := Some s;
        (Compiler.search_model ~options:(options w ~supervisor:s ()) w.platform inputs.spec, load_ns))
  in
  let resume_s = s_since t0 in
  ( resume_s,
    r,
    [
      ("journal.load_ms", load_ns *. 1e-6, "ms");
      ( "supervisor.replayed",
        float_of_int (Supervisor.replayed_count (Option.get !sup)),
        "count" );
    ] )

(* Direct probes of the serving layers' public functions on the round's
   traffic. *)
let serve_probes spans (w : Workload.t) (inputs : Workload.inputs) model ~(swap : swap) =
  let phase = "serve-probes" in
  let xs = Array.map (fun e -> e.Stream.features) inputs.events in
  let n = float_of_int (Array.length xs) in
  let per_pkt name f =
    let t0 = now_ns () in
    Spans.within spans ~phase name (fun _ -> f ());
    ns_since t0 /. n
  in
  let predict_ns = per_pkt "backends.predict_all" (fun () -> ignore (Inference.predict_all model xs)) in
  let runtime_figures =
    match w.mode with
    | Engine.Reference -> [ ("runtime.encode_ns", 0.); ("runtime.lookup_ns", 0.); ("runtime.load_ms", 0.) ]
    | Engine.Quantized ->
        let calibration = Updater.calibration_sample swap.updater ~n:256 in
        let loads =
          Array.init 3 (fun _ ->
              let t0 = now_ns () in
              ignore
                (Spans.within spans ~phase "backends.runtime_load" (fun _ ->
                     Runtime.load ~entries_per_feature:Engine.default_config.entries_per_feature
                       ~calibration swap.final_model));
              ns_since t0)
        in
        let rt = Runtime.load ~entries_per_feature:Engine.default_config.entries_per_feature model in
        let ws = Runtime.make_workspace rt in
        let sink = ref 0 in
        let encode = per_pkt "backends.encode_into" (fun () -> Array.iter (Runtime.encode_into rt ws) xs) in
        let both =
          per_pkt "backends.encode_lookup" (fun () ->
              Array.iter (fun x -> Runtime.encode_into rt ws x; sink := !sink + Runtime.lookup rt ws) xs)
        in
        ignore (Sys.opaque_identity !sink);
        [
          ("runtime.encode_ns", encode);
          ("runtime.lookup_ns", both -. encode);
          ("runtime.load_ms", Pstats.median loads *. 1e-6);
        ]
  in
  (* An engine whose virtual clock never advances only admits; finish then
     drains the whole queue in service batches. *)
  let at_zero = Array.map (fun e -> { e with Stream.ts = 0. }) inputs.events in
  let engine =
    Engine.create
      ~config:{ (engine_config w ~trace:0) with Engine.queue_capacity = Array.length at_zero }
      ~model ~monitor:(Monitor.create ~n_classes:w.n_classes ()) ()
  in
  let admit = per_pkt "serve.admit" (fun () -> Array.iter (Engine.step engine) at_zero) in
  let w0 = Gc.minor_words () in
  let drain = per_pkt "serve.drain" (fun () -> ignore (Engine.finish engine : Engine.summary)) in
  let drain_words = (Gc.minor_words () -. w0) /. n in
  let monitor = Monitor.create ~n_classes:w.n_classes () in
  let observe =
    per_pkt "serve.monitor_observe" (fun () ->
        Array.iteri
          (fun i e ->
            Monitor.observe monitor ~ts:(float_of_int i) ~queue_depth:0 ~features:e.Stream.features
              ~pred:e.Stream.label ~truth:e.Stream.label)
          inputs.events)
  in
  (* Retrain + validate on the swap pass's final reservoir, in a fresh
     updater so the swap cap of the pass does not apply. *)
  let fx, fy = Updater.snapshot swap.updater in
  let retrain_times =
    Array.init 3 (fun i ->
        let u =
          Updater.create (Rng.create i) ~n_features:(n_features inputs) ~n_classes:w.n_classes ()
        in
        Array.iteri (fun j x -> Updater.record u ~features:x ~label:fy.(j)) fx;
        let t0 = now_ns () in
        ignore
          (Spans.within spans ~phase "serve.updater_try_update" (fun _ ->
               Updater.try_update u ~incumbent:model ~ts:0. ~reason:"probe"));
        ns_since t0)
  in
  List.map (fun (name, v) -> (name, v, if name = "runtime.load_ms" then "ms" else "ns")) runtime_figures
  @ [
      ("inference.predict_ns", predict_ns, "ns");
      ("engine.admit_ns", admit, "ns");
      ("engine.drain_ns_per_pkt", drain, "ns");
      ("engine.minor_words_per_pkt", drain_words, "words");
      ("monitor.observe_ns", observe, "ns");
      ("updater.retrain_ms", Pstats.median retrain_times *. 1e-6, "ms");
      ("monitor.drifts", float_of_int swap.drifts, "count");
      ("engine.swaps", float_of_int swap.swaps, "count");
    ]

(* ------------------------------------------------------------------ *)
(* Parts *)

(* A run is two processes, as a user's session is: [homc search] compiles
   and exits, [homc serve] loads the winner in a fresh process. A search
   leaves the heap fragmented, and serving in the same process measured a
   different step time after every search (119 to 178 ns in one process,
   151 to 172 ns in a process that only served). *)
type part = {
  figures : (string * float * string) list;
  attempted : int;
  failed : int;
  context : (string * Json.t) list;
}

let samples_json samples =
  Json.Object
    (List.map
       (fun (name, xs) -> (name, Json.List (List.map (fun v -> Json.Number v) (Array.to_list xs))))
       samples)

let median_of samples name = Pstats.median (List.assoc name samples)

let compile_part w inputs ~setup_times ~journal_path ~seconds =
  let c = compile_rounds w inputs ~journal_path ~min_rounds:3 ~budget_s:seconds in
  let samples = [ ("setup_s", setup_times); ("search_s", c.search_s); ("resume_s", c.resume_s) ] in
  let med = median_of samples in
  ( c.result,
    {
      figures =
        [
          ("setup_s", med "setup_s", "s");
          ("search_s", med "search_s", "s");
          ("winner_f1", winner_f1 inputs c.result, "F1");
          ("resume_s", med "resume_s", "s");
        ];
      attempted = c.evals;
      failed = c.failed_evals;
      context = [ ("samples", samples_json samples) ];
    } )

let serve_part w inputs model ~seed ~seconds =
  let s = serve_rounds w inputs model ~seed ~min_rounds:3 ~budget_s:seconds in
  let samples =
    [
      ("serve_ips", Array.map (fun p -> p.ips) s.serve);
      ("step_ns_p50", s.step_p50);
      ("step_ns_p99", s.step_p99);
      ("swap_stall_ms", Array.map (fun p -> p.stall_ms) s.swap);
    ]
  in
  let med = median_of samples and served = s.outputs in
  {
    figures =
      [
        ("serve_ips", med "serve_ips", "inf/s");
        ("step_ns_p50", med "step_ns_p50", "ns");
        ("step_ns_p99", med "step_ns_p99", "ns");
        ("swap_stall_ms", med "swap_stall_ms", "ms");
        ("drop_rate", drop_rate s.serve.(0), "ratio");
        ("virtual_p99_ms", served.virtual_p99_ms, "ms");
        ("served_f1", served.f1, "F1");
      ];
    attempted = s.offered;
    failed = s.mismatches;
    context =
      [
        ("samples", samples_json samples);
        ("samples_per_step_pass", Json.Number (float_of_int s.steps));
        ("retraining_alarms_per_swap_pass", Json.Number (float_of_int s.swap.(0).alarms));
      ];
  }

(* Traced parts: a short untraced run of the part (warm-up plus one round),
   then the same phases under spans; the two must agree on every search
   result and served output. *)

let traced_compile_part spans w (inputs : Workload.inputs) ~seed ~packets ~journal_path
    ~events_per_s =
  let plain = compile_rounds w inputs ~journal_path ~min_rounds:1 ~budget_s:0. in
  let rebuilt =
    Spans.within spans ~phase:"setup" "netdata.build_inputs" (fun _ ->
        Workload.inputs w ~seed ~packets)
  in
  check "traced set-up equals the untraced one" (same_inputs inputs rebuilt);
  let search_s, r, dse = traced_search spans w inputs ~journal_path in
  check "traced search history and winner equal the untraced run" (fingerprint r = plain.fp);
  let _resume_s, resumed, resume = traced_resume spans w inputs ~journal_path in
  check "traced resume equals the untraced run" (fingerprint resumed = plain.fp);
  let bo = bo_probes spans w inputs r in
  ( r,
    {
      figures =
        dse @ resume @ bo
        @ [
            ("stream.events_per_s", events_per_s, "1/s");
            ("trace.overhead_search_s", search_s -. plain.search_s.(0), "s");
          ];
      attempted = plain.evals + (2 * evaluations r);
      failed = plain.failed_evals;
      context = [];
    } )

let traced_serve_part spans w (inputs : Workload.inputs) model ~seed =
  let plain = serve_rounds w inputs model ~seed ~min_rounds:1 ~budget_s:0. in
  let serve =
    Spans.within spans ~phase:"serve" "serve.drive" (fun _ -> serve_pass ~traced:true w inputs model)
  in
  let swap =
    Spans.within spans ~phase:"swap" "serve.swap_pass" (fun _ ->
        swap_pass ~traced:true w inputs model ~seed)
  in
  List.iter
    (fun (a, b) ->
      Spans.record spans ~id:(Spans.fresh_id spans) ~phase:"swap" ~start_ns:a ~stop_ns:b
        "serve.swap_step")
    swap.swap_steps;
  let outputs = Option.get serve.outputs in
  check "traced serve outputs equal the untraced run"
    (serve.dropped = plain.serve.(0).dropped && outputs.f1 = plain.outputs.f1);
  let mismatches = outputs.mismatches + swap.swap_mismatches in
  check "zero verdict mismatches against the oracle" (mismatches = 0);
  let probes = serve_probes spans w inputs model ~swap in
  {
    figures =
      (("runtime.miss_rate", outputs.miss_rate, "ratio") :: probes)
      @ [
          ( "trace.overhead_serve_ips",
            Pstats.median (Array.map (fun s -> s.ips) plain.serve) -. serve.ips,
            "1/s" );
        ];
    attempted = plain.offered + serve.offered + swap.swap_offered;
    failed = plain.mismatches + mismatches;
    context = [];
  }

(* Self time per layer over a part's spans; the two parts' figures add up. *)
let self_layers = [ "core"; "par"; "ml"; "resilience"; "bo"; "backends"; "serve"; "netdata" ]

let self_figures spans =
  let self = Spans.self_by_layer (Spans.spans spans) in
  List.map
    (fun layer -> ("self." ^ layer ^ "_s", Option.value (List.assoc_opt layer self) ~default:0., "s"))
    self_layers

let write_spans spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc (Json.to_string ~pretty:false (Spans.to_json s));
          Out_channel.output_char oc '\n')
        (Spans.spans spans))

(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.get

let metric (name, value, unit) = (name, Json.Object [ ("value", Json.Number value); ("unit", Json.String unit) ])

(* Served packets per pass: sized so one pass takes 0.1-0.2 s. *)
let packets (w : Workload.t) =
  match w.name with "dnn-taurus" -> 50_000 | _ -> 120_000

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let part_name = ref "" and winner = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time of this part");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--part", Arg.Set_string part_name, "compile|serve");
      ("--winner", Arg.Set_string winner, "PATH the compiled winner, written by compile, read by serve");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --part compile|serve --winner PATH";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (%s)\n" !workload
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
        exit 2
  in
  if !winner = "" || not (List.mem !part_name [ "compile"; "serve" ]) then begin
    prerr_endline "main.exe: --part compile|serve and --winner PATH are required";
    exit 2
  end;
  (* One worker domain. A search's history and winner are bit-identical at
     any worker count, so this changes timing only: with two workers on a
     2-vCPU VM, a search's wall time followed whether the second vCPU was
     free (1.4 to 3.3 s within one run). *)
  Par.set_default_jobs 1;
  let out_dir = ".perfbench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let journal_path = Filename.concat out_dir (Printf.sprintf "%s-%d.journal" w.name (Unix.getpid ())) in
  let traced = !trace = 1 and spans = Spans.create () in
  let packets = packets w in
  let part, setup_reps =
    if !part_name = "compile" then begin
      let inputs, setup_times, events_per_s = setup w ~seed:!seed ~packets in
      let result, part =
        if traced then
          traced_compile_part spans w inputs ~seed:!seed ~packets ~journal_path ~events_per_s
        else compile_part w inputs ~setup_times ~journal_path ~seconds:!seconds
      in
      Homunculus_backends.Ir_io.save ~path:!winner result.artifact.Evaluator.model_ir;
      if Sys.file_exists journal_path then Sys.remove journal_path;
      (part, Array.length setup_times)
    end
    else begin
      let inputs = Workload.inputs w ~seed:!seed ~packets in
      let model = Homunculus_backends.Ir_io.load ~path:!winner in
      let part =
        if traced then traced_serve_part spans w inputs model ~seed:!seed
        else serve_part w inputs model ~seed:!seed ~seconds:!seconds
      in
      (part, 1)
    end
  in
  let figures, context =
    if traced then begin
      let path =
        Filename.concat out_dir (Printf.sprintf "%s-seed%d-%s-spans.jsonl" w.name !seed !part_name)
      in
      write_spans spans path;
      ( part.figures @ self_figures spans,
        [ ("spans", Json.Number (float_of_int (List.length (Spans.spans spans)))); ("spans_file", Json.String path) ] )
    end
    else (part.figures @ [ ("peak_rss_mb", peak_rss_mb (), "MB") ], part.context)
  in
  let correct = !failures = [] && part.failed = 0 in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Object
          ([
             ("part", Json.String !part_name);
             ("packets_per_pass", Json.Number (float_of_int packets));
             ("setup_reps", Json.Number (float_of_int setup_reps));
             ("par_jobs", Json.Number (float_of_int (Par.jobs (Par.default ()))));
           ]
          @ context)));
  print_endline
    (Json.to_string ~pretty:false
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Number (float_of_int part.attempted));
            ("failed", Json.Number (float_of_int part.failed));
            ("metrics", Json.Object (List.map metric figures));
          ]));
  if not correct then exit 1
