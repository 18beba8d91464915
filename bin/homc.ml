(* homc — the Homunculus command-line compiler driver.

   Subcommands:
     compile   search + train + map one built-in application to a target and
               dump the generated backend code
     compose   search several guarded applications and lower them onto ONE
               shared pipeline; differential oracle + combined feasibility
     inspect   print a platform's resource model
     datasets  summarize the synthetic dataset generators
     export-trace
               freeze a synthetic flow population to a trace file
     serve     replay a trace through the online serving runtime (drift
               detection + hot-swap)
     loadgen   open-loop load generation against the serving engine:
               throughput, latency percentiles, SLO gate
     check     differential conformance: random models through every
               deployment path, compared against the FP reference

   Malformed, out-of-range or contradictory arguments are usage errors
   (exit 124); a missing or malformed input file exits 123 with a
   diagnosis; a compile or compose whose search finds no feasible model
   exits 3 with "homc: no feasible model: REASON". *)

open Cmdliner
open Homunculus_alchemy
open Homunculus_core
module Rng = Homunculus_util.Rng
module Nslkdd = Homunculus_netdata.Nslkdd
module Iot = Homunculus_netdata.Iot
module Botnet = Homunculus_netdata.Botnet
module Dataset = Homunculus_ml.Dataset
module Bo = Homunculus_bo
module Par = Homunculus_par.Par
module Resilience = Homunculus_resilience
module Policy = Homunculus_policy.Policy
module Pred = Homunculus_policy.Pred
module Lower = Homunculus_policy.Lower

(* Input files: a missing or malformed one is a one-line diagnosis and
   cmdliner's "some error" exit (123), not an uncaught exception. Only the
   load is guarded; [k] runs outside the handler. *)
let with_input path load k =
  let fail reason =
    Printf.eprintf "homc: %s: %s\n" path reason;
    Cmd.Exit.some_error
  in
  match load path with
  | v -> k v
  | exception (Sys_error msg | Failure msg | Invalid_argument msg) ->
      (* [Sys_error] messages already start with the path. *)
      let prefix = path ^ ": " in
      fail
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix)
             (String.length msg - String.length prefix)
         else msg)
  | exception Homunculus_util.Json.Parse_error { position; message } ->
      fail (Printf.sprintf "JSON parse error at byte %d: %s" position message)

(* The built-in applications: dataset generator, metric, and the algorithms
   [compile] searches. [tenant] is what [compose] uses instead: a
   MAT-mappable shortlist (the point of composing is multi-tenant
   table/stage sharing, and a binarized DNN would eat the whole budget slice
   on its own) plus a default steering guard tuned to the synthetic
   generator, so each tenant matches a meaningful slice of traffic. *)
type app = {
  name : string;
  metric : Model_spec.metric;
  split : Rng.t -> Dataset.t * Dataset.t;
  algorithms : Model_spec.algorithm list;
  tenant : (Model_spec.algorithm list * Pred.t) option;
}

let apps =
  let nslkdd rng = Nslkdd.generate_split rng () in
  let iot rng = Iot.generate_split rng () in
  let mat = Model_spec.[ Svm; Tree ] in
  [
    ( "ad",
      {
        name = "anomaly_detection";
        metric = Model_spec.F1;
        split = nslkdd;
        algorithms = [ Model_spec.Dnn ];
        tenant =
          Some
            ( mat,
              Pred.disj
                [ Pred.field_ge "host_count" 20.; Pred.field_ge "serror_rate" 0.1 ]
            );
      } );
    ( "tc",
      {
        name = "traffic_classification";
        metric = Model_spec.F1;
        split = iot;
        algorithms = Model_spec.[ Dnn; Svm; Tree ];
        tenant = Some (mat, Pred.field_lt "frame_size" 1200.);
      } );
    ( "tc-kmeans",
      {
        name = "traffic_classification";
        metric = Model_spec.V_measure;
        split = iot;
        algorithms = [ Model_spec.Kmeans ];
        tenant =
          Some ([ Model_spec.Kmeans ], Pred.field_ge "payload_entropy" 5.);
      } );
    ( "bd",
      {
        name = "botnet_detection";
        metric = Model_spec.F1;
        split = (fun rng -> Botnet.generate rng ());
        algorithms = [ Model_spec.Dnn ];
        tenant = None;
      } );
  ]

let spec_of ?algorithms app seed =
  let algorithms = Option.value algorithms ~default:app.algorithms in
  Model_spec.make ~name:app.name ~metric:app.metric ~algorithms
    ~loader:(fun () ->
      let train, test = app.split (Rng.create seed) in
      Model_spec.data ~train ~test)
    ()

let targets =
  [
    ("taurus", fun () -> Platform.taurus ());
    ("tofino", fun () -> Platform.tofino ());
    ("fpga", fun () -> Platform.fpga ());
  ]

let platform_of_name name = List.assoc name targets ()

(* Arguments *)

(* A closed set of names, e.g. the keys of [apps] or [targets]. *)
let one_of names = Arg.enum (List.map (fun n -> (n, n)) names)

let faultplan =
  let parse text =
    match Resilience.Faultplan.of_string text with
    | plan -> Ok plan
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print ppf plan =
    Format.pp_print_string ppf (Resilience.Faultplan.to_string plan)
  in
  Arg.conv (parse, print)

(* Numbers whose out-of-range values would otherwise be clamped or
   meaningless: rejected at parse time as usage errors. *)
let int_at_least lo =
  let parse text =
    match int_of_string_opt text with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected an integer >= %d"
                text lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float =
  let parse text =
    match float_of_string_opt text with
    | Some x when x > 0. -> Ok x
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected a number > 0" text))
  in
  Arg.conv (parse, Format.pp_print_float)

let app_arg =
  let doc = "Application: ad, tc, tc-kmeans, or bd." in
  Arg.(value & pos 0 (one_of (List.map fst apps)) "ad" & info [] ~docv:"APP" ~doc)

let target_arg =
  let doc = "Backend target: taurus, tofino, or fpga." in
  Arg.(
    value
    & opt (one_of (List.map fst targets)) "taurus"
    & info [ "t"; "target" ] ~docv:"TARGET" ~doc)

let seed_arg =
  let doc = "Random seed for data generation and search." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let budget_arg =
  let doc = "Total optimization evaluations (warm-up + guided)." in
  (* Below 4 the warm-up floor of 3 plus one guided evaluation would
     silently run 4 anyway. *)
  Arg.(value & opt (int_at_least 4) 25 & info [ "budget" ] ~docv:"N" ~doc)

let output_arg =
  let doc = "Write generated backend code to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel search (default: \\$(b,PAR_JOBS) or the \
     machine's core count). Also used as the optimizer's batch size, so each \
     surrogate fit proposes this many candidates for concurrent evaluation."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let prune_arg =
  let doc =
    "Prune weak DNN candidates with a successive-halving rung scheduler: \
     configurations in the bottom half at 1/4 and 1/2 of their epoch budget \
     stop early and enter the search history as partial observations. Same \
     winner quality for a fraction of the training epochs; deterministic at \
     any --jobs."
  in
  Arg.(value & flag & info [ "prune" ] ~doc)

let journal_arg =
  let doc =
    "Journal every evaluation outcome to $(docv)/journal.jsonl: an \
     append-only, checksummed, fsync'd write-ahead log. A crashed or killed \
     search can then be resumed with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Replay recorded outcomes from the $(b,--journal) directory instead of \
     re-training them. The optimizer is re-driven with the original seed, so \
     the resumed search's history — and its winner — are bit-for-bit what an \
     uninterrupted run would have produced."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let faults_arg =
  let doc =
    "Deterministic fault plan for resilience testing: comma-separated \
     raise@K[:N] (exception on candidate K's first N attempts), nan@K:E \
     (NaN loss at epoch E, if candidate K trains), timeout@K, infeasible@K, \
     kill@N (crash after N journal records)."
  in
  Arg.(value & opt (some faultplan) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let retries_arg =
  let doc =
    "Retries for transient (backend-class) evaluation failures. Divergence \
     and budget exhaustion are never retried."
  in
  Arg.(value & opt (int_at_least 0) 1 & info [ "retries" ] ~docv:"N" ~doc)

let eval_budget_arg =
  let doc =
    "Per-candidate wall-clock budget in seconds (monotonic); a candidate \
     that exceeds it is recorded as an infeasible budget failure."
  in
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "eval-budget" ] ~docv:"SECONDS" ~doc)

(* Shared DSE terms *)

(* --seed, --budget, --jobs and --prune: the search options every searching
   subcommand starts from. *)
let options_t =
  let make seed budget jobs prune =
    let n_init = Stdlib.max 3 (budget / 4) in
    let jobs = if jobs <= 0 then Par.recommended_jobs () else jobs in
    Par.set_default_jobs jobs;
    {
      Compiler.default_options with
      Compiler.seed;
      bo_settings =
        {
          Bo.Optimizer.default_settings with
          Bo.Optimizer.n_init;
          n_iter = Stdlib.max 1 (budget - n_init);
          batch_size = jobs;
        };
      prune = (if prune then Some Bo.Asha.default_settings else None);
    }
  in
  Term.(const make $ seed_arg $ budget_arg $ jobs_arg $ prune_arg)

(* Supervision: --journal, --resume, --faults, --retries and --eval-budget. *)
type supervision = {
  journal_dir : string option;
  resume : bool;
  faults : Resilience.Faultplan.t option;
  retries : int;
  eval_budget : float option;
}

let supervision_t =
  let make journal_dir resume faults retries eval_budget =
    if resume && journal_dir = None then
      `Error (true, "--resume requires --journal DIR")
    else `Ok { journal_dir; resume; faults; retries; eval_budget }
  in
  Term.(
    ret
      (const make $ journal_arg $ resume_arg $ faults_arg $ retries_arg
     $ eval_budget_arg))

(* Build the supervisor (or none, when no resilience flag was given). The
   journal handle is returned separately so the driver can close it. *)
let open_supervision { journal_dir; resume; faults; retries; eval_budget } =
  if journal_dir = None && faults = None && eval_budget = None && retries = 1
  then (None, None)
  else begin
    let journal, replay =
      match journal_dir with
      | None -> (None, None)
      | Some dir ->
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
          let path = Filename.concat dir "journal.jsonl" in
          let replay =
            if resume then begin
              let r = Resilience.Journal.load path in
              Printf.eprintf "resume: %d journal records loaded, %d dropped\n%!"
                (Resilience.Journal.loaded r)
                (Resilience.Journal.dropped r);
              Some r
            end
            else None
          in
          (Some (Resilience.Journal.open_ path), replay)
    in
    let settings =
      {
        Resilience.Supervisor.default_settings with
        Resilience.Supervisor.max_retries = retries;
        budget_s = eval_budget;
      }
    in
    ( Some (Resilience.Supervisor.create ~settings ?journal ?replay ?faults ()),
      journal )
  end

(* compile *)

(* "No feasible solution exists" is an outcome, not a crash: the same exit
   code [compose] gives an infeasible composed pipeline. *)
let no_feasible_model reason =
  Printf.eprintf "homc: no feasible model: %s\n%!" reason;
  3

(* The searched-result report, shared by [compile] and [search]: everything
   deterministic goes to stdout (so inline, resumed, and distributed runs of
   the same seed diff clean), accounting goes to stderr. *)
let print_search_result ~target ~output result =
  print_string (Report.result_summary result);
  match result.Compiler.models with
  | [ m ] -> (
      Printf.printf "\nwinning configuration: %s\n"
        (Report.config_summary m.Compiler.artifact.Evaluator.config);
      Printf.printf "\n%s\n" (Report.render_regret m.Compiler.history);
      match (m.Compiler.code, output) with
      | Some code, Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc code);
          Printf.printf "wrote %d bytes of %s code to %s\n" (String.length code)
            (if target = "tofino" then "P4" else "Spatial")
            path
      | Some code, None ->
          Printf.printf "generated %d lines of backend code (use -o to save)\n"
            (List.length (String.split_on_char '\n' code))
      | None, _ -> ())
  | _ -> ()

let compile app target options supervision output =
  let spec = spec_of (List.assoc app apps) options.Compiler.seed in
  let supervisor, journal = open_supervision supervision in
  let options = { options with Compiler.supervisor } in
  let run () =
    let result =
      Compiler.generate ~options (platform_of_name target) (Schedule.model spec)
    in
    print_search_result ~target ~output result;
    (* Accounting goes to stderr so an interrupted-then-resumed run's stdout
       diffs clean against an uninterrupted one. *)
    (match supervisor with
    | Some sup
      when Resilience.Supervisor.replayed_count sup > 0
           || Resilience.Supervisor.failure_count sup > 0 ->
        Printf.eprintf "supervisor: %d evaluations replayed, %d failures\n%!"
          (Resilience.Supervisor.replayed_count sup)
          (Resilience.Supervisor.failure_count sup)
    | Some _ | None -> ());
    0
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Resilience.Journal.close journal)
    (fun () ->
      try run () with
      | Resilience.Faultplan.Killed n ->
          Printf.eprintf "search killed after %d journal records (simulated)\n%!"
            n;
          10
      | Compiler.No_feasible_model reason -> no_feasible_model reason)

(* compose: many guarded models, one shared data plane *)

let tenant_apps =
  List.filter_map
    (fun (key, app) ->
      Option.map
        (fun (algorithms, guard) -> (key, (app, algorithms, guard)))
        app.tenant)
    apps

let compose tenants target options samples output =
  let tenants = if tenants = [] then [ "ad"; "tc" ] else tenants in
  let seed = options.Compiler.seed in
  let platform = platform_of_name target in
  let specs =
    List.map
      (fun tenant ->
        let app, algorithms, guard = List.assoc tenant tenant_apps in
        (spec_of ~algorithms app seed, guard))
      tenants
  in
  let policy =
    Policy.par
      (List.map (fun (spec, guard) -> Policy.guard guard (Policy.model spec)) specs)
  in
  Printf.printf "policy: %s\n" (Policy.to_string (Policy.normalize policy));
  match Compiler.compile_policy ~options platform policy with
  | exception Compiler.No_feasible_model reason -> no_feasible_model reason
  | Error e ->
      Printf.printf "composition rejected: %s\n" (Lower.error_to_string e);
      2
  | Ok pr ->
      let composed = pr.Compiler.composed in
      List.iter
        (fun ((t : Policy.tenant), (m : Compiler.model_result)) ->
          Printf.printf "tenant %-28s %-6s objective %.4f\n" t.Policy.id
            (Model_spec.algorithm_to_string m.Compiler.artifact.Evaluator.algorithm)
            m.Compiler.artifact.Evaluator.objective)
        pr.Compiler.tenant_models;
      (match composed.Lower.pipeline with
      | Lower.Mat { device; _ } ->
          let standalone =
            List.fold_left
              (fun acc tn -> acc + Lower.standalone_stages device tn)
              0 composed.Lower.tenants
          in
          Printf.printf "shared pipeline: %d stages (standalone sum %d)\n"
            (Lower.stages_used composed) standalone
      | Lower.Grid { cus; mus; pipeline_cycles; _ } ->
          Printf.printf "shared grid: %d CUs, %d MUs, %d cycles\n" cus mus
            pipeline_cycles);
      let summary = Lower.summary composed in
      (match output with
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc summary);
          Printf.printf "wrote composition summary to %s\n" path
      | None -> print_string summary);
      (* Differential oracle: the data-plane semantics (guard tables +
         shared projections) must bit-match the per-tenant reference on a
         corpus mixing every tenant's test marginals. *)
      let module Compose_eval = Homunculus_check.Compose_eval in
      let sources =
        List.map
          (fun (spec, _) ->
            let data = Model_spec.load spec in
            ( data.Model_spec.test.Dataset.feature_names,
              data.Model_spec.test.Dataset.x ))
          specs
      in
      let vecs =
        Compose_eval.corpus (Rng.create (seed + 1))
          ~features:composed.Lower.features ~n:samples sources
      in
      let violations = Compose_eval.check composed vecs in
      List.iter
        (fun v ->
          Printf.printf "VIOLATION %s\n" (Compose_eval.violation_to_string v))
        violations;
      if violations <> [] then begin
        Printf.printf "differential oracle: %d violations on %d samples\n"
          (List.length violations) samples;
        1
      end
      else if not composed.Lower.verdict.Homunculus_backends.Resource.feasible
      then begin
        Printf.printf "composed pipeline INFEASIBLE: %s\n"
          (Option.value ~default:"unknown"
             composed.Lower.verdict.Homunculus_backends.Resource.rejection);
        3
      end
      else begin
        Printf.printf
          "differential oracle: %d samples bit-identical; composition \
           feasible at line rate\n"
          samples;
        0
      end

(* inspect *)

let inspect target =
  let platform = platform_of_name target in
  Printf.printf "platform: %s\n" (Platform.name platform);
  let perf = Platform.perf platform in
  Printf.printf "constraints: %.3f Gpkt/s minimum, %.0f ns latency budget\n"
    perf.Homunculus_backends.Resource.min_throughput_gpps
    perf.Homunculus_backends.Resource.max_latency_ns;
  (match platform.Platform.target with
  | Platform.Taurus g ->
      Printf.printf
        "grid: %dx%d (%d CUs + %d MUs), %d-wide SIMD, %d params/MU, %.1f GHz\n"
        g.Homunculus_backends.Taurus.rows g.Homunculus_backends.Taurus.cols
        (Homunculus_backends.Taurus.available_cus g)
        (Homunculus_backends.Taurus.available_mus g)
        g.Homunculus_backends.Taurus.vec_width
        g.Homunculus_backends.Taurus.mu_words
        g.Homunculus_backends.Taurus.clock_ghz
  | Platform.Tofino d ->
      Printf.printf "pipeline: %d MATs, %d entries/table, %d stages\n"
        d.Homunculus_backends.Tofino.n_tables
        d.Homunculus_backends.Tofino.entries_per_table
        d.Homunculus_backends.Tofino.n_stages
  | Platform.Fpga d ->
      let r = Homunculus_backends.Fpga.loopback_report d in
      Printf.printf "shell (loopback): %.2f%% LUT, %.2f%% FF, %.2f%% BRAM, %.3f W\n"
        r.Homunculus_backends.Fpga.lut_pct r.Homunculus_backends.Fpga.ff_pct
        r.Homunculus_backends.Fpga.bram_pct r.Homunculus_backends.Fpga.power_w);
  List.iter
    (fun algo ->
      Printf.printf "  %-8s %s\n"
        (Model_spec.algorithm_to_string algo)
        (if Platform.supports platform algo then "supported" else "unsupported"))
    Model_spec.all_algorithms;
  0

(* datasets *)

let datasets seed =
  let rng = Rng.create seed in
  let show name (d : Dataset.t) =
    Printf.printf "%-22s %6d samples, %3d features, %d classes, counts [%s]\n"
      name (Dataset.n_samples d) (Dataset.n_features d) d.Dataset.n_classes
      (String.concat "; "
         (Array.to_list (Array.map string_of_int (Dataset.class_counts d))))
  in
  show "nslkdd (AD)" (Nslkdd.generate rng ());
  show "iot (TC)" (Iot.generate rng ());
  let train, test = Botnet.generate rng () in
  show "botnet train (flows)" train;
  show "botnet test (packets)" test;
  0

(* export-trace: freeze a synthetic flow population to disk *)

let export_trace seed flows output =
  let rng = Rng.create seed in
  let population =
    Homunculus_netdata.Flowsim.generate rng
      ~mix:{ Homunculus_netdata.Flowsim.n_flows = flows; botnet_frac = 0.5; max_packets = 400 }
      ()
  in
  (match output with
  | Some path ->
      Homunculus_netdata.Trace.save ~path population;
      Printf.printf "wrote %d flows to %s\n" flows path
  | None -> print_string (Homunculus_netdata.Trace.to_string population));
  0

(* serve: replay a frozen trace through the online serving runtime *)

let load_serve_trace path =
  let flows = Homunculus_netdata.Trace.load ~path in
  let n = Array.length flows in
  if n < 10 then
    failwith (Printf.sprintf "trace too small: %d flows, need at least 10" n);
  flows

let serve trace_path seed rate window_events label_delay (algorithm, quantized)
    train_frac (autopilot, no_update) inject_drift jsonl_out research_budget
    research_evals cooldown research_journal faults target =
  let module Serve = Homunculus_serve in
  let module Botnet = Homunculus_netdata.Botnet in
  let module Autopilot = Homunculus_autopilot.Autopilot in
  with_input trace_path load_serve_trace @@ fun flows ->
  let n = Array.length flows in
  let rng = Rng.create seed in
  let n_train =
    Stdlib.max 1 (Stdlib.min (n - 1) (int_of_float (train_frac *. float_of_int n)))
  in
  let train_flows = Array.sub flows 0 n_train in
  let serve_flows = Array.sub flows n_train (n - n_train) in
  let model =
    Serve.Updater.bootstrap (Rng.split rng) ~algorithm ~bins:Botnet.Fused
      ~name:"serve" train_flows
  in
  let window_s = 600. in
  let events =
    if inject_drift then begin
      let half = Array.length serve_flows / 2 in
      let phase_a = Array.sub serve_flows 0 half in
      let phase_b =
        Serve.Stream.renumber ~from:(n + Array.length serve_flows)
          (Serve.Stream.shift_botnet
             (Array.sub serve_flows half (Array.length serve_flows - half)))
      in
      let sched_a = Array.map (fun f -> (Rng.float rng window_s, f)) phase_a in
      let sched_b =
        Array.map (fun f -> (window_s +. Rng.float rng window_s, f)) phase_b
      in
      Serve.Stream.events_scheduled (Array.append sched_a sched_b)
    end
    else Serve.Stream.events rng ~start_window_s:window_s serve_flows
  in
  Printf.printf "%d flows -> %d per-packet events (%d bootstrap flows)%s\n"
    (Array.length serve_flows) (Array.length events) n_train
    (if inject_drift then
       Printf.sprintf "; botnet profile shifts at t = %.0f s" window_s
     else "");
  let monitor =
    Serve.Monitor.create
      ~config:
        {
          Serve.Monitor.default_config with
          Serve.Monitor.window_events;
          label_delay_s = label_delay;
          cooldown_windows = cooldown;
        }
      ~n_classes:2 ()
  in
  (* The serving layer knows nothing of fault plans: drift@W faults are
     realized here by registering forced alarms on the monitor. *)
  List.iter
    (fun window -> Serve.Monitor.force_drift_at monitor ~window)
    (Resilience.Faultplan.drift_windows faults);
  let updater =
    if no_update then None
    else
      Some
        (Serve.Updater.create (Rng.split rng)
           ~n_features:(Botnet.n_features Botnet.Fused) ~n_classes:2 ())
  in
  let pilot =
    if not autopilot then None
    else
      let updater = Option.get updater in
      let journal_dir =
        match research_journal with
        | Some dir -> dir
        | None -> trace_path ^ ".research"
      in
      let cfg =
        {
          (Autopilot.default_config ~platform:(platform_of_name target)
             ~journal_dir)
          with
          Autopilot.seed;
          budget_s = research_budget;
          fresh_evals = research_evals;
          faults;
        }
      in
      Some (Autopilot.create cfg ~updater)
  in
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.service_rate_pps = rate;
      mode = (if quantized then Serve.Engine.Quantized else Serve.Engine.Reference);
    }
  in
  let engine =
    Serve.Engine.create ~config ~model ~monitor ?updater
      ?research:(Option.map Autopilot.hook pilot)
      ()
  in
  match Serve.Engine.run engine events with
  | exception Resilience.Faultplan.Killed n ->
      (* A simulated crash mid-re-search: the generation journal is already
         flushed, so the next invocation resumes it bit-for-bit. *)
      Printf.eprintf "re-search killed after %d fresh journal records (simulated)\n" n;
      10
  | summary ->
  Printf.printf "served %d, dropped %d of %d offered\n" summary.Serve.Engine.served
    summary.Serve.Engine.dropped summary.Serve.Engine.offered;
  let windows = summary.Serve.Engine.windows in
  let n_windows = List.length windows in
  let stride = Stdlib.max 1 (n_windows / 24) in
  Printf.printf "%-8s %10s %8s %8s %8s %10s\n" "window" "t_end" "events" "acc"
    "F1" "max queue";
  List.iter
    (fun (w : Serve.Monitor.window) ->
      if w.Serve.Monitor.index mod stride = 0 then
        Printf.printf "%-8d %10.1f %8d %8.3f %8.3f %10d\n" w.Serve.Monitor.index
          w.Serve.Monitor.t_end w.Serve.Monitor.events w.Serve.Monitor.accuracy
          w.Serve.Monitor.f1 w.Serve.Monitor.max_queue_depth)
    windows;
  List.iter
    (fun (d : Serve.Monitor.drift) ->
      Printf.printf "drift @ %.1f s: %s (%.3f), window %d\n" d.Serve.Monitor.ts
        d.Serve.Monitor.reason d.Serve.Monitor.value d.Serve.Monitor.window)
    summary.Serve.Engine.drift_events;
  List.iter
    (fun (s : Serve.Engine.swap) ->
      Printf.printf
        "swap  @ %.1f s: holdout F1 %.3f -> %.3f, %d queued packets preserved, \
         %d dropped during swap\n"
        s.Serve.Engine.swap_ts s.Serve.Engine.incumbent_f1
        s.Serve.Engine.challenger_f1 s.Serve.Engine.queue_preserved
        s.Serve.Engine.dropped_during_swap)
    summary.Serve.Engine.swaps;
  (match pilot with
  | None -> ()
  | Some p ->
      List.iter
        (fun (e : Autopilot.event) ->
          (* deterministic fields to stdout, accounting to stderr: a
             resumed run stays diff-clean against an uninterrupted one *)
          print_endline (Autopilot.event_to_string e);
          Printf.eprintf
            "autopilot accounting: window=%d replayed=%d fresh=%d wall=%.3fs\n"
            e.Autopilot.window e.Autopilot.replayed e.Autopilot.fresh
            e.Autopilot.wall_s)
        (Autopilot.events p));
  (match jsonl_out with
  | Some path ->
      Serve.Report.write_jsonl ~path summary;
      Printf.printf "wrote timeline to %s\n" path
  | None -> ());
  0

(* loadgen: open-loop serving throughput / latency measurement *)

let loadgen seed payload rates process burst peak service_rate quantized
    slo_p99 json_out =
  let module Serve = Homunculus_serve in
  let module Model_ir = Homunculus_backends.Model_ir in
  let module Svm = Homunculus_ml.Svm in
  let module Serve_eval = Homunculus_check.Serve_eval in
  let module Json = Homunculus_util.Json in
  let rng = Rng.create seed in
  let process =
    match process with
    | `Poisson -> Serve.Loadgen.Poisson
    | `Bursty -> Serve.Loadgen.Bursty { mean_burst = burst; peak_factor = peak }
  in
  (* Payload: a MAT-mappable model plus a feature-carrying event trace whose
     timestamps the generator will overwrite. *)
  let model, base, n_classes =
    match payload with
    | "botnet" ->
        let mix =
          { Homunculus_netdata.Flowsim.n_flows = 100;
            botnet_frac = 0.5; max_packets = 160 }
        in
        let train = Homunculus_netdata.Flowsim.generate rng ~mix () in
        let model =
          Serve.Updater.bootstrap (Rng.split rng) ~algorithm:`Svm
            ~bins:Botnet.Fused ~name:"botnet_detection" train
        in
        let flows = Homunculus_netdata.Flowsim.generate rng ~mix () in
        (model, Serve.Stream.events (Rng.split rng) flows, 2)
    | _ (* nslkdd | iot *) ->
        let train, test =
          if payload = "nslkdd" then Nslkdd.generate_split (Rng.split rng) ()
          else Iot.generate_split (Rng.split rng) ()
        in
        let svm = Svm.fit (Rng.split rng) train in
        let model = Model_ir.of_svm ~name:payload svm in
        let n = Array.length test.Dataset.x in
        let base =
          Serve.Stream.of_samples ~app:payload ~labels:test.Dataset.y
            ~ts:(Array.init n float_of_int) test.Dataset.x
        in
        (model, base, train.Dataset.n_classes)
  in
  let mode = if quantized then Serve.Engine.Quantized else Serve.Engine.Reference in
  Printf.printf
    "payload %s: %d events, %d classes; %s drain, service rate %.0f pps\n\n"
    payload (Array.length base) n_classes
    (if quantized then "quantized" else "reference")
    service_rate;
  let run_rate rate =
    let g =
      Serve.Loadgen.generator (Rng.create (seed + 1)) ~rate ~process
    in
    let events = Serve.Loadgen.retime g base in
    let config =
      {
        Serve.Engine.default_config with
        Serve.Engine.mode;
        service_rate_pps = service_rate;
        trace_capacity = Array.length events;
      }
    in
    let monitor = Serve.Monitor.create ~n_classes () in
    let engine = Serve.Engine.create ~config ~model ~monitor () in
    let label =
      Printf.sprintf "%s_%s_%gpps" payload
        (Serve.Loadgen.process_name process) rate
    in
    (engine, Serve.Loadgen.drive ~label engine ~rate ~process events)
  in
  let runs = List.map run_rate rates in
  List.iter
    (fun (_, (r : Serve.Loadgen.result)) ->
      let lat p =
        if Array.length r.Serve.Loadgen.latencies = 0 then Float.nan
        else Serve.Report.percentile p r.Serve.Loadgen.latencies
      in
      Printf.printf
        "%-28s offered %6d served %6d dropped %5d | %9.0f inf/s | p50 %6.1f \
         ms  p99 %6.1f ms  p999 %6.1f ms\n"
        r.Serve.Loadgen.label r.Serve.Loadgen.offered r.Serve.Loadgen.served
        r.Serve.Loadgen.dropped r.Serve.Loadgen.sustained_ips
        (1e3 *. lat 50.) (1e3 *. lat 99.) (1e3 *. lat 99.9))
    runs;
  (* Quantized runs must replay bit-identically through the pure oracle. *)
  let mismatches =
    if not quantized then 0
    else
      List.fold_left
        (fun acc (engine, _) ->
          let rp = Serve_eval.replay_quantized engine in
          acc + List.length rp.Serve_eval.mismatches)
        0 runs
  in
  if quantized then
    Printf.printf "\nquantized replay oracle: %d mismatches\n" mismatches;
  (match json_out with
  | Some path ->
      let json =
        Json.Object
          [
            ("seed", Json.Number (float_of_int seed));
            ("payload", Json.String payload);
            ("service_rate_pps", Json.Number service_rate);
            ( "runs",
              Json.List
                (List.map
                   (fun (_, r) -> Serve.Loadgen.result_to_json r)
                   runs) );
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Json.to_string ~pretty:true json);
          Out_channel.output_char oc '\n');
      Printf.printf "wrote %s\n" path
  | None -> ());
  if mismatches > 0 then begin
    Printf.eprintf "FAIL: quantized drain diverged from the replay oracle\n";
    1
  end
  else
    match slo_p99 with
    | None -> 0
    | Some budget ->
        let worst =
          List.fold_left
            (fun acc (_, r) ->
              (* The SLO applies to rates the engine can sustain — an
                 over-subscribed run's latency rides the queue capacity by
                 design, so gate only runs that dropped nothing. *)
              if r.Serve.Loadgen.dropped = 0 then
                Stdlib.max acc (Serve.Loadgen.p99 r)
              else acc)
            neg_infinity runs
        in
        if worst = neg_infinity then begin
          Printf.printf "SLO gate: no drop-free run to gate\n";
          0
        end
        else if worst <= budget then begin
          Printf.printf "SLO gate: worst drop-free p99 %.1f ms <= budget %.1f ms\n"
            (1e3 *. worst) (1e3 *. budget);
          0
        end
        else begin
          Printf.eprintf "FAIL: p99 %.4f s exceeds the %.4f s SLO budget\n"
            worst budget;
          4
        end

(* check: differential conformance harness *)

let check seed trials backends families artifact_dir max_shrink replay =
  let module Check = Homunculus_check in
  match replay with
  | Some path ->
      with_input path (fun path -> Check.Harness.load_artifact ~path)
      @@ fun artifact ->
      let outcome = Check.Harness.replay artifact in
      print_string (Check.Harness.render_replay outcome);
      if Check.Harness.replay_ok outcome then 0 else 1
  | None ->
      let or_all all = function [] -> all | chosen -> chosen in
      let backends = or_all Check.Oracle.all_backends backends in
      let families = or_all Check.Gen.all_families families in
      let options =
        {
          Check.Harness.seed;
          trials;
          backends;
          families;
          artifact_dir;
          max_shrink;
        }
      in
      let report = Check.Harness.run options in
      print_string (Check.Harness.render report);
      if Check.Harness.ok report then 0 else 1

let flows_arg =
  let doc = "Number of flows to synthesize." in
  Arg.(value & opt int 200 & info [ "flows" ] ~docv:"N" ~doc)

(* Command wiring *)

let compile_cmd =
  let doc = "Search, train, and compile an application for a data-plane target." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const compile $ app_arg $ target_arg $ options_t
      $ supervision_t $ output_arg)

let compose_cmd =
  let apps_arg =
    let doc =
      "Tenant applications to co-host (repeat positionally): ad, tc, \
       tc-kmeans. Default: ad tc."
    in
    Arg.(
      value
      & pos_all (one_of (List.map fst tenant_apps)) []
      & info [] ~docv:"APPS" ~doc)
  in
  let samples_arg =
    let doc = "Samples for the composed-pipeline differential oracle." in
    Arg.(value & opt int 256 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let doc =
    "Compose guarded tenant models into one shared data-plane pipeline. \
     Exits 1 on a differential-oracle violation, 2 when the lowering \
     rejects the composition, 3 when a tenant's search finds no feasible \
     model or the composed pipeline is infeasible at the platform's \
     performance target."
  in
  Cmd.v (Cmd.info "compose" ~doc)
    Term.(
      const compose $ apps_arg $ target_arg $ options_t $ samples_arg
      $ output_arg)

let inspect_cmd =
  let doc = "Print a target platform's resource model and capabilities." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ target_arg)

let datasets_cmd =
  let doc = "Summarize the synthetic dataset generators." in
  Cmd.v (Cmd.info "datasets" ~doc) Term.(const datasets $ seed_arg)

let export_trace_cmd =
  let doc = "Synthesize a P2P flow population and write it as a trace file." in
  Cmd.v (Cmd.info "export-trace" ~doc)
    Term.(const export_trace $ seed_arg $ flows_arg $ output_arg)

let serve_cmd =
  let trace_arg =
    let doc = "Trace file to replay (see export-trace)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let rate_arg =
    let doc = "Service rate in packets per virtual second." in
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"PPS" ~doc)
  in
  let window_arg =
    let doc = "Labeled events per evaluation window." in
    Arg.(value & opt int 250 & info [ "window" ] ~docv:"N" ~doc)
  in
  let label_delay_arg =
    let doc = "Virtual-time lag before ground-truth labels arrive, seconds." in
    Arg.(value & opt float 5. & info [ "label-delay" ] ~docv:"S" ~doc)
  in
  let algorithm_arg =
    let doc = "Model family to bootstrap: dnn, svm, or tree." in
    Arg.(
      value
      & opt (enum [ ("dnn", `Dnn); ("svm", `Svm); ("tree", `Tree) ]) `Dnn
      & info [ "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let train_frac_arg =
    let doc = "Fraction of the trace's flows used to train the initial model." in
    Arg.(value & opt float 0.4 & info [ "train-frac" ] ~docv:"F" ~doc)
  in
  let no_update_arg =
    let doc = "Monitor only: never retrain or hot-swap." in
    Arg.(value & flag & info [ "no-update" ] ~doc)
  in
  let quantized_arg =
    let doc = "Execute through the quantized MAT runtime instead of the \
               floating-point reference (svm/tree models only)." in
    Arg.(value & flag & info [ "quantized" ] ~doc)
  in
  let inject_drift_arg =
    let doc = "Shift the botnet traffic profile for the second half of the \
               replay (concept-drift demo)." in
    Arg.(value & flag & info [ "inject-drift" ] ~doc)
  in
  let jsonl_arg =
    let doc = "Write the window/drift/swap timeline as JSONL to this file." in
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
  in
  let autopilot_arg =
    let doc = "React to drift with a budgeted, journal-warm-started \
               incremental re-search over the updater's labeled buffer \
               instead of the updater's single retrain; the winner installs \
               through the same validation margin." in
    Arg.(value & flag & info [ "autopilot" ] ~doc)
  in
  let research_budget_arg =
    let doc = "Wall-clock budget per autopilot re-search, in seconds; a \
               budget-killed search resumes on the next drift alarm." in
    Arg.(value & opt (some float) None & info [ "research-budget" ] ~docv:"S" ~doc)
  in
  let research_evals_arg =
    let doc = "Strictly-new guided evaluations per autopilot re-search." in
    Arg.(value & opt int 4 & info [ "research-evals" ] ~docv:"N" ~doc)
  in
  let cooldown_arg =
    let doc = "Monitor hysteresis: swallow further drift alarms for this \
               many evaluation windows after one is consumed." in
    Arg.(value & opt int 0 & info [ "cooldown" ] ~docv:"W" ~doc)
  in
  let research_journal_arg =
    let doc = "Directory for the autopilot's generation journals \
               (research-NNN.jsonl + .done markers); defaults to \
               TRACE.research." in
    Arg.(
      value
      & opt (some string) None
      & info [ "research-journal" ] ~docv:"DIR" ~doc)
  in
  let faults_arg =
    let doc = "Fault plan, e.g. drift@3,research-timeout@0,kill@5 \
               (see compile --faults)." in
    Arg.(
      value
      & opt faultplan (Resilience.Faultplan.create [])
      & info [ "faults" ] ~docv:"PLAN" ~doc)
  in
  let drain_t =
    let check algorithm quantized =
      if quantized && algorithm = `Dnn then
        `Error
          (true, "--quantized needs a MAT-mappable model: use --algorithm svm or tree")
      else `Ok (algorithm, quantized)
    in
    Term.(ret (const check $ algorithm_arg $ quantized_arg))
  in
  let update_t =
    let check autopilot no_update =
      if autopilot && no_update then
        `Error
          (true, "--autopilot needs the updater's labeled buffer: drop --no-update")
      else `Ok (autopilot, no_update)
    in
    Term.(ret (const check $ autopilot_arg $ no_update_arg))
  in
  let doc = "Replay a trace through the online serving runtime." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ trace_arg $ seed_arg $ rate_arg $ window_arg
      $ label_delay_arg $ drain_t $ train_frac_arg $ update_t
      $ inject_drift_arg $ jsonl_arg $ research_budget_arg
      $ research_evals_arg $ cooldown_arg $ research_journal_arg $ faults_arg
      $ target_arg)

let loadgen_cmd =
  let payload_arg =
    let doc = "Workload to serve: botnet, nslkdd, or iot." in
    Arg.(
      value
      & opt (one_of [ "botnet"; "nslkdd"; "iot" ]) "botnet"
      & info [ "payload" ] ~docv:"NAME" ~doc)
  in
  let rates_arg =
    let doc = "Offered arrival rate in packets per second. Repeatable." in
    Arg.(value & opt_all float [ 100.; 240. ] & info [ "rate" ] ~docv:"PPS" ~doc)
  in
  let process_arg =
    let doc = "Arrival process: poisson or bursty." in
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "process" ] ~docv:"PROC" ~doc)
  in
  let burst_arg =
    let doc = "Mean burst length for the bursty process." in
    Arg.(value & opt int 8 & info [ "burst" ] ~docv:"N" ~doc)
  in
  let peak_arg =
    let doc = "In-burst rate multiplier for the bursty process." in
    Arg.(value & opt float 4. & info [ "peak" ] ~docv:"F" ~doc)
  in
  let service_rate_arg =
    let doc = "Engine service rate in packets per virtual second." in
    Arg.(value & opt float 200. & info [ "service-rate" ] ~docv:"PPS" ~doc)
  in
  let quantized_arg =
    let doc = "Drain through the fixed-point MAT runtime and replay every \
               verdict through the pure oracle (exit 1 on any mismatch)." in
    Arg.(value & flag & info [ "quantized" ] ~doc)
  in
  let slo_arg =
    let doc = "Fail (exit 4) when the worst drop-free p99 service latency \
               exceeds this budget in seconds." in
    Arg.(value & opt (some float) None & info [ "slo-p99" ] ~docv:"S" ~doc)
  in
  let json_arg =
    let doc = "Write per-run throughput/latency results as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let doc = "Open-loop load generation: measure serving throughput and \
             latency at fixed offered rates." in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const loadgen $ seed_arg $ payload_arg $ rates_arg $ process_arg
      $ burst_arg $ peak_arg $ service_rate_arg $ quantized_arg $ slo_arg
      $ json_arg)

let check_cmd =
  let trials_arg =
    let doc = "Number of random (model, batch) cases to generate." in
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let backend_arg =
    let doc =
      "Deployment path to check: spatial, runtime, or p4. Repeatable; \
       default all."
    in
    let backends =
      List.map
        (fun b -> (Homunculus_check.Oracle.backend_to_string b, b))
        Homunculus_check.Oracle.all_backends
    in
    Arg.(value & opt_all (enum backends) [] & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let family_arg =
    let doc =
      "Model family to generate: mlp, tree, forest, svm, or kmeans. \
       Repeatable; default all."
    in
    let families =
      List.map
        (fun f -> (Homunculus_check.Gen.family_to_string f, f))
        Homunculus_check.Gen.all_families
    in
    Arg.(value & opt_all (enum families) [] & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let artifact_arg =
    let doc = "Write shrunk JSON reproducers for failures into this directory." in
    Arg.(value & opt (some string) None & info [ "artifact-dir" ] ~docv:"DIR" ~doc)
  in
  let max_shrink_arg =
    let doc = "Shrinker budget: predicate evaluations per failure." in
    Arg.(value & opt int 400 & info [ "max-shrink" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc = "Re-run the oracle on a persisted reproducer artifact instead \
               of generating new cases." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let doc = "Differential conformance: random models through every \
             deployment path vs the floating-point reference." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ seed_arg $ trials_arg $ backend_arg $ family_arg
      $ artifact_arg $ max_shrink_arg $ replay_arg)

let main_cmd =
  let doc = "Homunculus: auto-generating data-plane ML pipelines" in
  Cmd.group (Cmd.info "homc" ~version:"1.0.0" ~doc)
    [
      compile_cmd; compose_cmd; inspect_cmd; datasets_cmd; export_trace_cmd;
      serve_cmd; loadgen_cmd; check_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
