(* Fault-injection harness for the resilience layer: journal round-trips and
   corruption tolerance, supervisor failure classification, fault-injected
   searches that complete with tagged history entries, and the headline
   guarantee — kill-at-any-record resume reproduces the uninterrupted
   search bit-for-bit, at one worker and at several. *)
open Homunculus_alchemy
open Homunculus_core
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng
module Par = Homunculus_par.Par
module Faultplan = Homunculus_resilience.Faultplan
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor

let temp_journal () = Filename.temp_file "homunculus_journal" ".jsonl"

let some_config =
  Bo.Config.make
    [
      ("alpha", Bo.Param.Real_value 0.125);
      ("depth", Bo.Param.Int_value 7);
      ("kind", Bo.Param.Index_value 2);
    ]

let other_config =
  Bo.Config.make
    [ ("alpha", Bo.Param.Real_value 3.5); ("depth", Bo.Param.Int_value 2) ]

(* Faultplan *)

let test_faultplan_roundtrip () =
  let text =
    "raise@3,raise@4:1,nan@5:2,timeout@7,infeasible@2,drift@6,\
     research-timeout@1,kill@4"
  in
  let plan = Faultplan.of_string text in
  Alcotest.(check string) "round trip" text (Faultplan.to_string plan);
  Alcotest.(check int) "eight faults parsed" 8 (List.length (Faultplan.faults plan));
  Alcotest.(check bool) "empty plan" true
    (Faultplan.faults (Faultplan.of_string "") = []);
  Alcotest.check_raises "malformed" (Invalid_argument
    "Faultplan.of_string: \"raise\" (expected raise@K[:N], nan@K:E, \
     timeout@K, infeasible@K[:OBJ[:pruned]], drift@W, research-timeout@G, \
     or kill@N)")
    (fun () -> ignore (Faultplan.of_string "raise"))

let test_faultplan_serving_arms () =
  let plan = Faultplan.of_string "drift@2,drift@5,research-timeout@1,kill@3" in
  Alcotest.(check (list int)) "drift windows in plan order" [ 2; 5 ]
    (Faultplan.drift_windows plan);
  Alcotest.(check bool) "research timeout at its generation" true
    (Faultplan.research_timeout_at plan ~generation:1);
  Alcotest.(check bool) "other generations untouched" false
    (Faultplan.research_timeout_at plan ~generation:0);
  Alcotest.(check (list int)) "no drift arms: empty" []
    (Faultplan.drift_windows (Faultplan.of_string "kill@3"))

let test_faultplan_queries () =
  let plan = Faultplan.of_string "raise@1:1,nan@2:3,timeout@4,kill@5" in
  (* raise@1:1 fires on attempt 0 only. *)
  Faultplan.check_raise plan ~index:0 ~attempt:0;
  Alcotest.check_raises "raises on first attempt"
    (Faultplan.Injected "injected failure for candidate 1 (attempt 0)")
    (fun () -> Faultplan.check_raise plan ~index:1 ~attempt:0);
  Faultplan.check_raise plan ~index:1 ~attempt:1;
  Alcotest.(check (option int)) "nan epoch" (Some 3)
    (Faultplan.nan_epoch_at plan ~index:2);
  Alcotest.(check (option int)) "no nan" None
    (Faultplan.nan_epoch_at plan ~index:3);
  Alcotest.(check bool) "timeout" true (Faultplan.timeout_at plan ~index:4);
  Faultplan.check_kill plan ~records:4;
  Alcotest.check_raises "kill at threshold" (Faultplan.Killed 5) (fun () ->
      Faultplan.check_kill plan ~records:5)

(* Journal *)

let sample_records =
  [
    {
      Journal.scope = "blobs/tree";
      index = 0;
      config = some_config;
      objective = 0.875;
      feasible = true;
      pruned = false;
      metadata = [ ("latency_ns", 350.); ("params", 42.) ];
      failure = None;
      kind = Journal.Exact;
    };
    {
      Journal.scope = "blobs/tree";
      index = 1;
      config = other_config;
      objective = Float.nan;
      feasible = false;
      pruned = true;
      metadata = [ ("failure", 1.) ];
      failure =
        Some
          {
            Journal.failure_class = "divergence";
            message = "training diverged at epoch 3";
            retries = 0;
          };
      kind = Journal.Exact;
    };
  ]

let record_equal (a : Journal.record) (b : Journal.record) =
  a.Journal.scope = b.Journal.scope
  && a.index = b.index
  && Bo.Config.equal a.config b.config
  && Int64.bits_of_float a.objective = Int64.bits_of_float b.objective
  && a.feasible = b.feasible && a.pruned = b.pruned
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         k1 = k2 && Int64.bits_of_float v1 = Int64.bits_of_float v2)
       a.metadata b.metadata
  && a.failure = b.failure && a.kind = b.kind

let test_journal_roundtrip () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  List.iteri
    (fun i r ->
      Alcotest.(check int) "append count" (i + 1) (Journal.append j r))
    sample_records;
  Journal.close j;
  let replay = Journal.load path in
  Alcotest.(check int) "all lines valid" 2 (Journal.loaded replay);
  Alcotest.(check int) "none dropped" 0 (Journal.dropped replay);
  List.iter
    (fun r ->
      match
        Journal.find replay ~scope:r.Journal.scope ~config:r.Journal.config
      with
      | None -> Alcotest.fail "record not found on replay"
      | Some found ->
          Alcotest.(check bool)
            "record round-trips (NaN objective included)" true
            (record_equal r found))
    sample_records;
  Sys.remove path

let test_journal_corruption_tolerance () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  List.iter (fun r -> ignore (Journal.append j r)) sample_records;
  Journal.close j;
  let valid = In_channel.with_open_text path In_channel.input_all in
  (* A bit-flipped middle line, a garbage line, and a truncated final line:
     exactly what a crash mid-append or disk corruption leaves behind. *)
  let some_line = List.nth (String.split_on_char '\n' valid) 0 in
  let flipped = Bytes.of_string some_line in
  Bytes.set flipped (String.length some_line / 2)
    (if Bytes.get flipped (String.length some_line / 2) = 'x' then 'y' else 'x');
  Out_channel.with_open_gen
    [ Open_append; Open_text ] 0o644 path
    (fun oc ->
      Out_channel.output_string oc (Bytes.to_string flipped ^ "\n");
      Out_channel.output_string oc "not json at all\n";
      Out_channel.output_string oc
        (String.sub some_line 0 (String.length some_line - 11)));
  let replay = Journal.load path in
  Alcotest.(check int) "valid records survive" 2 (Journal.loaded replay);
  Alcotest.(check int) "three bad lines dropped" 3 (Journal.dropped replay);
  Alcotest.(check bool) "good record still found" true
    (Journal.find replay ~scope:"blobs/tree" ~config:some_config <> None);
  Sys.remove path

let test_journal_later_record_wins () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  let base = List.hd sample_records in
  ignore (Journal.append j base);
  ignore (Journal.append j { base with Journal.objective = 0.5 });
  Journal.close j;
  let replay = Journal.load path in
  (match Journal.find replay ~scope:base.Journal.scope ~config:base.Journal.config with
  | Some r -> Alcotest.(check (float 0.)) "superseded" 0.5 r.Journal.objective
  | None -> Alcotest.fail "record missing");
  Sys.remove path

(* Evaluation-kind field: the writer no longer emits one, and the lines
   older journals hold still load. *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let test_journal_kind_roundtrip () =
  let module Json = Homunculus_util.Json in
  let base = List.hd sample_records in
  (match Journal.record_to_json base with
  | Json.Object members ->
      Alcotest.(check bool) "no kind member written" false
        (List.mem_assoc "kind" members)
  | _ -> Alcotest.fail "record_to_json must produce an object");
  match Journal.record_of_line (Journal.line_of_record base) with
  | None -> Alcotest.fail "kind-less line dropped"
  | Some r -> Alcotest.(check bool) "payload survives" true (record_equal base r)

(* A checksummed journal line around an arbitrary record object, built the
   way [Journal.line_of_record] builds one. *)
let line_of_rec_json rec_json =
  let module Json = Homunculus_util.Json in
  let rec_text = Json.to_string ~pretty:false rec_json in
  Printf.sprintf "{\"sum\":%s,\"rec\":%s}"
    (Json.to_string ~pretty:false
       (Json.String (Printf.sprintf "%016Lx" (fnv1a64 rec_text))))
    rec_text

(* Two lines as the journal writer emitted them while the learned
   pre-filter existed: an exact evaluation and one of the filter's
   predicted-infeasible skips, each with its "kind" member. *)
let tagged_exact_line =
  {|{"sum":"972b6bacfe2549c3","rec":{"scope":"blobs/dnn","index":0,"config":{"alpha":{"real":0.125},"depth":{"int":7},"kind":{"index":2}},"objective":0.875,"feasible":true,"pruned":false,"metadata":{"latency_ns":350,"params":42},"failure":null,"kind":"exact"}}|}

let tagged_predicted_line =
  {|{"sum":"f3b399bd15cbc113","rec":{"scope":"blobs/dnn","index":1,"config":{"alpha":{"real":3.5},"depth":{"int":2}},"objective":0.25,"feasible":false,"pruned":false,"metadata":{"cm_predicted":1,"cm_p_feasible":0.125},"failure":null,"kind":"predicted"}}|}

let test_journal_kind_legacy_lines () =
  let path = temp_journal () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (tagged_exact_line ^ "\n" ^ tagged_predicted_line ^ "\n"));
  let replay = Journal.load path in
  Sys.remove path;
  Alcotest.(check int) "both lines load" 2 (Journal.loaded replay);
  Alcotest.(check int) "nothing dropped" 0 (Journal.dropped replay);
  (* A predicted line replays verbatim as the infeasible entry it
     recorded: no evaluation runs. *)
  let sup = Supervisor.create ~replay () in
  let replayed config =
    Supervisor.supervise sup ~scope:"blobs/dnn" ~index:0 ~config (fun _ ->
        Alcotest.fail "a recorded candidate must not be evaluated")
  in
  let exact = replayed some_config and predicted = replayed other_config in
  Alcotest.(check bool) "exact line is feasible" true exact.Bo.Optimizer.feasible;
  Alcotest.(check (float 0.)) "exact objective" 0.875 exact.Bo.Optimizer.objective;
  Alcotest.(check bool) "predicted line is infeasible" false
    predicted.Bo.Optimizer.feasible;
  Alcotest.(check (float 0.)) "predicted objective" 0.25
    predicted.Bo.Optimizer.objective;
  Alcotest.(check (list (pair string (float 0.))))
    "predicted metadata"
    [ ("cm_predicted", 1.); ("cm_p_feasible", 0.125) ]
    predicted.Bo.Optimizer.metadata;
  Alcotest.(check int) "both replayed" 2 (Supervisor.replayed_count sup)

(* Record kinds: "exact" and "predicted" lines are evaluations, and a line
   with any other kind — the lease/release lines an earlier distributed
   coordinator interleaved with its results, say — is not, so loading drops
   it instead of replaying it as an exact result. *)
let test_journal_record_kinds () =
  let module Json = Homunculus_util.Json in
  let base = List.hd sample_records in
  let line_of_kind name =
    match Journal.record_to_json base with
    | Json.Object members ->
        line_of_rec_json (Json.Object (members @ [ ("kind", Json.String name) ]))
    | _ -> Alcotest.fail "record_to_json must produce an object"
  in
  List.iter
    (fun name ->
      match Journal.record_of_line (line_of_kind name) with
      | Some back ->
          Alcotest.(check bool) (name ^ " line loads its payload") true
            (record_equal base back)
      | None -> Alcotest.failf "%s line did not parse" name)
    [ "exact"; "predicted" ];
  let foreign = [ "lease"; "release"; "bogus" ] in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " line is not a record") true
        (Journal.record_of_line (line_of_kind name) = None))
    foreign;
  let path = temp_journal () in
  let j = Journal.open_ path in
  ignore (Journal.append j base);
  Journal.close j;
  Out_channel.with_open_gen [ Open_append; Open_text ] 0o644 path (fun oc ->
      List.iter
        (fun name -> Out_channel.output_string oc (line_of_kind name ^ "\n"))
        foreign);
  let raw, replay = Journal.read path in
  Alcotest.(check int) "raw view holds only the evaluation" 1 (List.length raw);
  Alcotest.(check int) "replay loads only the evaluation" 1
    (Journal.loaded replay);
  Alcotest.(check int) "foreign kinds counted as dropped" 3
    (Journal.dropped replay);
  Sys.remove path

(* Group commit, the single-pass read, and cross-journal merge. Records
   get distinct configs per index so their replay keys differ. *)

let indexed_record ?(objective = 0.5) index =
  {
    (List.hd sample_records) with
    Journal.index;
    config = Bo.Config.make [ ("depth", Bo.Param.Int_value index) ];
    objective;
  }

let test_journal_group_commit () =
  Alcotest.check_raises "fsync_every must be positive"
    (Invalid_argument "Journal.open_: fsync_every < 1") (fun () ->
      ignore (Journal.open_ ~fsync_every:0 (temp_journal ())));
  let path = temp_journal () in
  let j = Journal.open_ ~fsync_every:4 path in
  for i = 0 to 5 do
    ignore (Journal.append j (indexed_record i))
  done;
  (* an explicit group-commit flush is safe mid-stream *)
  Journal.sync j;
  ignore (Journal.append j (indexed_record 6));
  (* close flushes the unsynced tail *)
  Journal.close j;
  Alcotest.(check int) "all seven records durable" 7
    (List.length (Journal.records path));
  Sys.remove path

let test_journal_read_single_pass () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  ignore (Journal.append j (indexed_record ~objective:1.0 0));
  ignore (Journal.append j (indexed_record 1));
  ignore (Journal.append j (indexed_record ~objective:2.0 0));
  Journal.close j;
  Out_channel.with_open_gen [ Open_append; Open_text ] 0o644 path (fun oc ->
      Out_channel.output_string oc "this is not a journal line\n");
  let raw, replay = Journal.read path in
  Alcotest.(check (list int)) "raw view keeps file order and duplicates"
    [ 0; 1; 0 ]
    (List.map (fun r -> r.Journal.index) raw);
  Alcotest.(check int) "replay absorbed every valid line" 3
    (Journal.loaded replay);
  Alcotest.(check int) "corrupt line dropped" 1 (Journal.dropped replay);
  Alcotest.(check (option (float 0.))) "later record wins" (Some 2.0)
    (Option.map
       (fun r -> r.Journal.objective)
       (Journal.find replay ~scope:"blobs/tree"
          ~config:(indexed_record 0).Journal.config));
  Alcotest.(check int) "load sees the same table" (Journal.loaded replay)
    (Journal.loaded (Journal.load path));
  Sys.remove path

let test_journal_merge () =
  let write objective =
    let path = temp_journal () in
    let j = Journal.open_ path in
    ignore (Journal.append j (indexed_record ~objective 0));
    Journal.close j;
    path
  in
  let pa = write 1.0 and pb = write 2.0 in
  let a = Journal.load pa and b = Journal.load pb in
  let objective_of replay =
    Option.map
      (fun r -> r.Journal.objective)
      (Journal.find replay ~scope:"blobs/tree"
         ~config:(indexed_record 0).Journal.config)
  in
  Alcotest.(check (option (float 0.))) "later table wins" (Some 2.0)
    (objective_of (Journal.merge [ a; b ]));
  Alcotest.(check (option (float 0.))) "merge order is the tie-break"
    (Some 1.0)
    (objective_of (Journal.merge [ b; a ]));
  Alcotest.(check int) "loaded counters are summed" 2
    (Journal.loaded (Journal.merge [ a; b ]));
  Alcotest.(check int) "empty merge is an empty table" 0
    (Journal.loaded (Journal.merge []));
  Sys.remove pa;
  Sys.remove pb

(* Supervisor unit behavior *)

let ok_eval : Bo.Optimizer.evaluation =
  { objective = 0.9; feasible = true; pruned = false; metadata = [] }

let test_supervisor_transient_retry () =
  let faults = Faultplan.of_string "raise@0:1" in
  let sup = Supervisor.create ~faults () in
  let attempts = ref 0 in
  let eval =
    Supervisor.supervise sup ~scope:"s" ~index:0 ~config:some_config
      (fun ctx ->
        incr attempts;
        (* Attempt 0 raised before the thunk ran; this is the retry. *)
        Alcotest.(check int) "attempt number" 1 ctx.Supervisor.attempt;
        ok_eval)
  in
  Alcotest.(check int) "one successful attempt" 1 !attempts;
  Alcotest.(check bool) "success returned" true (eval = ok_eval);
  Alcotest.(check int) "no terminal failure" 0 (Supervisor.failure_count sup)

let test_supervisor_hard_failure_tagged () =
  let faults = Faultplan.of_string "raise@0" in
  let sup = Supervisor.create ~faults () in
  let eval =
    Supervisor.supervise sup ~scope:"s" ~index:0 ~config:some_config
      (fun _ -> Alcotest.fail "thunk must not run")
  in
  Alcotest.(check bool) "infeasible" false eval.Bo.Optimizer.feasible;
  Alcotest.(check (float 0.)) "objective zero" 0. eval.Bo.Optimizer.objective;
  Alcotest.(check (option (float 0.))) "backend class"
    (Some (Supervisor.class_code Supervisor.Backend))
    (List.assoc_opt Supervisor.failure_key eval.Bo.Optimizer.metadata);
  Alcotest.(check (option (float 0.))) "one retry burned" (Some 1.)
    (List.assoc_opt Supervisor.retries_key eval.Bo.Optimizer.metadata);
  Alcotest.(check int) "counted" 1 (Supervisor.failure_count sup)

let test_supervisor_divergence_partial_metric () =
  let faults = Faultplan.of_string "nan@0:2" in
  let sup = Supervisor.create ~faults () in
  let eval =
    Supervisor.supervise sup ~scope:"s" ~index:0 ~config:some_config
      (fun ctx ->
        (* Epoch 1 trains fine and reports a metric; epoch 2's loss reads
           as NaN through the fault and aborts. *)
        Supervisor.epoch_guard ctx ~epoch:1 ~loss:0.8 ~metric:(Some 0.62);
        Supervisor.epoch_guard ctx ~epoch:2 ~loss:0.4 ~metric:(Some 0.70);
        Alcotest.fail "training must have aborted")
  in
  Alcotest.(check bool) "infeasible" false eval.Bo.Optimizer.feasible;
  Alcotest.(check bool) "pruned (partial budget)" true eval.Bo.Optimizer.pruned;
  (* Metric recorded at epoch 2 before the loss check, so the partial
     observation is the freshest finite one. *)
  Alcotest.(check (float 0.)) "last finite metric kept" 0.70
    eval.Bo.Optimizer.objective;
  Alcotest.(check (option (float 0.))) "divergence class"
    (Some (Supervisor.class_code Supervisor.Divergence))
    (List.assoc_opt Supervisor.failure_key eval.Bo.Optimizer.metadata);
  Alcotest.(check int) "no retry for divergence" 1 (Supervisor.failure_count sup)

let test_supervisor_real_nan_loss () =
  let sup = Supervisor.create () in
  let eval =
    Supervisor.supervise sup ~scope:"s" ~index:3 ~config:some_config
      (fun ctx ->
        Supervisor.epoch_guard ctx ~epoch:1 ~loss:Float.nan ~metric:None;
        Alcotest.fail "must abort on NaN loss")
  in
  Alcotest.(check (float 0.)) "no metric seen: objective 0" 0.
    eval.Bo.Optimizer.objective;
  Alcotest.(check bool) "infeasible" false eval.Bo.Optimizer.feasible

let test_supervisor_timeout () =
  let faults = Faultplan.of_string "timeout@0" in
  let sup = Supervisor.create ~faults () in
  let eval =
    Supervisor.supervise sup ~scope:"s" ~index:0 ~config:some_config
      (fun _ -> Alcotest.fail "thunk must not run")
  in
  Alcotest.(check (option (float 0.))) "budget class"
    (Some (Supervisor.class_code Supervisor.Budget))
    (List.assoc_opt Supervisor.failure_key eval.Bo.Optimizer.metadata);
  (* The deadline path in the guard: a context whose deadline already passed
     raises on the next epoch. *)
  let ctx =
    {
      Supervisor.attempt = 0;
      started = 0.;
      deadline = Some (-1.);
      nan_epoch = None;
      last_metric = None;
    }
  in
  (match Supervisor.epoch_guard ctx ~epoch:1 ~loss:0.5 ~metric:None with
  | () -> Alcotest.fail "expired deadline must raise"
  | exception Supervisor.Timed_out _ -> ())

let test_supervisor_replay_skips_execution () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  ignore (Journal.append j (List.hd sample_records));
  Journal.close j;
  let replay = Journal.load path in
  let sup = Supervisor.create ~replay () in
  let eval =
    Supervisor.supervise sup ~scope:"blobs/tree" ~index:0 ~config:some_config
      (fun _ -> Alcotest.fail "replay hit must not re-run")
  in
  Alcotest.(check (float 0.)) "recorded objective" 0.875
    eval.Bo.Optimizer.objective;
  Alcotest.(check int) "counted as replayed" 1 (Supervisor.replayed_count sup);
  Sys.remove path

(* Search-level fault injection. Tree-only searches keep the runtime down;
   the DNN variant below exercises the divergence path end to end. *)

let tree_spec () = Test_core.blob_spec ~name:"rblobs" ~algorithms:[ Model_spec.Tree ] ()
let dnn_spec () = Test_core.blob_spec ~name:"rdnn" ~algorithms:[ Model_spec.Dnn ] ()

let search_options ?supervisor ~seed () =
  {
    Test_core.tiny_options with
    Compiler.seed;
    supervisor;
    bo_settings =
      {
        Test_core.tiny_options.Compiler.bo_settings with
        Bo.Optimizer.n_iter = 4;
        batch_size = 2;
      };
  }

let run_search ?supervisor ?(spec = tree_spec ()) ?(platform = Platform.tofino ())
    ~seed () =
  let options = search_options ?supervisor ~seed () in
  Compiler.search_model ~options platform spec

let entry_exactly_equal (a : Bo.History.entry) (b : Bo.History.entry) =
  a.Bo.History.iteration = b.Bo.History.iteration
  && Bo.Config.equal a.config b.config
  && Int64.bits_of_float a.objective = Int64.bits_of_float b.objective
  && a.feasible = b.feasible && a.pruned = b.pruned
  && List.length a.metadata = List.length b.metadata
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         k1 = k2 && Int64.bits_of_float v1 = Int64.bits_of_float v2)
       a.metadata b.metadata

let histories_identical a b =
  List.length (Bo.History.entries a) = List.length (Bo.History.entries b)
  && List.for_all2 entry_exactly_equal (Bo.History.entries a)
       (Bo.History.entries b)

(* An injected exception leaves the search completing, the victim tagged in
   the history, and the winner identical to a run where that candidate was
   merely infeasible (the failure contributes the same (x, 0, infeasible)
   observation to the surrogate either way). *)
let test_search_with_injected_raise () =
  let faulty =
    Supervisor.create ~faults:(Faultplan.of_string "raise@2") ()
  in
  let r = run_search ~supervisor:faulty ~seed:11 () in
  Alcotest.(check int) "search completed all 7 evaluations" 7
    (Bo.History.length r.Compiler.history);
  let victim = List.nth (Bo.History.entries r.Compiler.history) 2 in
  Alcotest.(check bool) "victim infeasible" false victim.Bo.History.feasible;
  Alcotest.(check (option (float 0.))) "victim tagged backend"
    (Some (Supervisor.class_code Supervisor.Backend))
    (List.assoc_opt Supervisor.failure_key victim.Bo.History.metadata);
  let control =
    Supervisor.create
      ~faults:(Faultplan.create [ Faultplan.Infeasible_on { index = 2; objective = 0.; pruned = false } ])
      ()
  in
  let c = run_search ~supervisor:control ~seed:11 () in
  Alcotest.(check bool) "winner matches merely-infeasible run" true
    (Bo.Config.equal r.Compiler.artifact.Evaluator.config
       c.Compiler.artifact.Evaluator.config);
  Alcotest.(check bool) "winner objective bit-equal" true
    (Int64.bits_of_float r.Compiler.artifact.Evaluator.objective
    = Int64.bits_of_float c.Compiler.artifact.Evaluator.objective)

let test_search_with_injected_timeout () =
  let faulty =
    Supervisor.create ~faults:(Faultplan.of_string "timeout@1") ()
  in
  let r = run_search ~supervisor:faulty ~seed:5 () in
  Alcotest.(check int) "search completed" 7 (Bo.History.length r.Compiler.history);
  let victim = List.nth (Bo.History.entries r.Compiler.history) 1 in
  Alcotest.(check (option (float 0.))) "victim tagged budget"
    (Some (Supervisor.class_code Supervisor.Budget))
    (List.assoc_opt Supervisor.failure_key victim.Bo.History.metadata);
  let control =
    Supervisor.create
      ~faults:(Faultplan.create [ Faultplan.Infeasible_on { index = 1; objective = 0.; pruned = false } ])
      ()
  in
  let c = run_search ~supervisor:control ~seed:5 () in
  Alcotest.(check bool) "winner matches merely-infeasible run" true
    (Bo.Config.equal r.Compiler.artifact.Evaluator.config
       c.Compiler.artifact.Evaluator.config)

(* NaN divergence on a real DNN training run: the loss fault aborts epoch 1,
   the entry lands infeasible + pruned with the divergence tag, and the
   search still finds the same winner as a run where that candidate was
   infeasible with the same partial observation. On FPGA, because the
   victim's shape cannot fit the 16x16 Taurus grid, so there it would never
   train and the fault would never fire. *)
let test_search_with_injected_nan_loss () =
  let faulty =
    Supervisor.create ~faults:(Faultplan.of_string "nan@2:1") ()
  in
  let r =
    run_search ~supervisor:faulty ~spec:(dnn_spec ())
      ~platform:(Platform.fpga ()) ~seed:3 ()
  in
  Alcotest.(check int) "search completed" 7 (Bo.History.length r.Compiler.history);
  let victim = List.nth (Bo.History.entries r.Compiler.history) 2 in
  Alcotest.(check bool) "victim infeasible" false victim.Bo.History.feasible;
  Alcotest.(check bool) "victim pruned (partial)" true victim.Bo.History.pruned;
  Alcotest.(check (option (float 0.))) "victim tagged divergence"
    (Some (Supervisor.class_code Supervisor.Divergence))
    (List.assoc_opt Supervisor.failure_key victim.Bo.History.metadata);
  let control =
    Supervisor.create
      ~faults:
        (Faultplan.create
           [
             Faultplan.Infeasible_on
               {
                 index = 2;
                 objective = victim.Bo.History.objective;
                 pruned = true;
               };
           ])
      ()
  in
  let c =
    run_search ~supervisor:control ~spec:(dnn_spec ())
      ~platform:(Platform.fpga ()) ~seed:3 ()
  in
  Alcotest.(check bool) "winner matches merely-infeasible run" true
    (Bo.Config.equal r.Compiler.artifact.Evaluator.config
       c.Compiler.artifact.Evaluator.config)

(* The headline guarantee: kill the search after EVERY possible journal
   record count, resume from the journal, and require the resumed history
   and winner to be bit-for-bit the uninterrupted run's — at one worker and
   at several (batch_size stays fixed; only scheduling changes). *)
let test_kill_and_resume_deterministic () =
  let total = 7 in
  let with_jobs jobs body =
    Par.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Par.set_default_jobs (Par.recommended_jobs ())) body
  in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let reference = run_search ~supervisor:(Supervisor.create ()) ~seed:11 () in
          for kill_at = 1 to total do
            let path = temp_journal () in
            (* First incarnation: journaled, crashes once the journal holds
               [kill_at] records. *)
            let j = Journal.open_ path in
            (match
               run_search
                 ~supervisor:
                   (Supervisor.create ~journal:j
                      ~faults:(Faultplan.create [ Faultplan.Kill_after { records = kill_at } ])
                      ())
                 ~seed:11 ()
             with
            | (_ : Compiler.model_result) ->
                Alcotest.failf "kill@%d: search survived its own crash" kill_at
            | exception Faultplan.Killed _ -> ());
            Journal.close j;
            (* Second incarnation: replay the journal, run to completion. *)
            let j2 = Journal.open_ path in
            let replay = Journal.load path in
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d: journal has >= %d records" kill_at kill_at)
              true
              (Journal.loaded replay >= kill_at);
            let sup = Supervisor.create ~journal:j2 ~replay () in
            let resumed = run_search ~supervisor:sup ~seed:11 () in
            Journal.close j2;
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d jobs=%d: history bit-identical" kill_at jobs)
              true
              (histories_identical reference.Compiler.history
                 resumed.Compiler.history);
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d jobs=%d: same winner" kill_at jobs)
              true
              (Bo.Config.equal reference.Compiler.artifact.Evaluator.config
                 resumed.Compiler.artifact.Evaluator.config);
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d jobs=%d: winner objective bit-equal"
                 kill_at jobs)
              true
              (Int64.bits_of_float reference.Compiler.artifact.Evaluator.objective
              = Int64.bits_of_float resumed.Compiler.artifact.Evaluator.objective);
            Sys.remove path
          done))
    [ 1; 4 ]

(* A journaled run with an injected hard failure must resume losslessly too:
   the failure record replays (no second round of retries) and the resumed
   history keeps the failure tag. *)
let test_resume_preserves_failure_records () =
  let path = temp_journal () in
  let j = Journal.open_ path in
  let first =
    run_search
      ~supervisor:
        (Supervisor.create ~journal:j ~faults:(Faultplan.of_string "raise@2") ())
      ~seed:11 ()
  in
  Journal.close j;
  let replay = Journal.load path in
  let sup = Supervisor.create ~replay () in
  let resumed = run_search ~supervisor:sup ~seed:11 () in
  Alcotest.(check int) "everything replayed" 7 (Supervisor.replayed_count sup);
  Alcotest.(check int) "no re-executed failures" 0 (Supervisor.failure_count sup);
  Alcotest.(check bool) "histories identical incl. failure tags" true
    (histories_identical first.Compiler.history resumed.Compiler.history);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "faultplan round trip" `Quick test_faultplan_roundtrip;
    Alcotest.test_case "faultplan queries" `Quick test_faultplan_queries;
    Alcotest.test_case "faultplan serving arms" `Quick
      test_faultplan_serving_arms;
    Alcotest.test_case "journal round trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal corruption tolerance" `Quick
      test_journal_corruption_tolerance;
    Alcotest.test_case "journal later record wins" `Quick
      test_journal_later_record_wins;
    Alcotest.test_case "journal kind round-trip" `Quick
      test_journal_kind_roundtrip;
    Alcotest.test_case "journal kind legacy lines" `Quick
      test_journal_kind_legacy_lines;
    Alcotest.test_case "journal record kinds" `Quick test_journal_record_kinds;
    Alcotest.test_case "journal group commit" `Quick test_journal_group_commit;
    Alcotest.test_case "journal single-pass read" `Quick
      test_journal_read_single_pass;
    Alcotest.test_case "journal deterministic merge" `Quick test_journal_merge;
    Alcotest.test_case "supervisor transient retry" `Quick
      test_supervisor_transient_retry;
    Alcotest.test_case "supervisor hard failure tagged" `Quick
      test_supervisor_hard_failure_tagged;
    Alcotest.test_case "supervisor divergence partial metric" `Quick
      test_supervisor_divergence_partial_metric;
    Alcotest.test_case "supervisor real NaN loss" `Quick
      test_supervisor_real_nan_loss;
    Alcotest.test_case "supervisor timeout" `Quick test_supervisor_timeout;
    Alcotest.test_case "supervisor replay skips execution" `Quick
      test_supervisor_replay_skips_execution;
    Alcotest.test_case "search completes despite injected raise" `Quick
      test_search_with_injected_raise;
    Alcotest.test_case "search completes despite injected timeout" `Quick
      test_search_with_injected_timeout;
    Alcotest.test_case "search completes despite injected NaN loss" `Slow
      test_search_with_injected_nan_loss;
    Alcotest.test_case "kill-at-every-record resume is deterministic" `Slow
      test_kill_and_resume_deterministic;
    Alcotest.test_case "resume preserves failure records" `Quick
      test_resume_preserves_failure_records;
  ]
