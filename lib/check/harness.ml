module Rng = Homunculus_util.Rng
module Json = Homunculus_util.Json

type options = {
  seed : int;
  trials : int;
  backends : Oracle.backend list;
  families : Gen.family list;
  artifact_dir : string option;
  max_shrink : int;
}

let default_options =
  {
    seed = 42;
    trials = 100;
    backends = Oracle.all_backends;
    families = Gen.all_families;
    artifact_dir = None;
    max_shrink = 400;
  }

type stats = {
  backend : Oracle.backend;
  cases : int;
  samples : int;
  agreed : int;
  excused : int;
  violation_count : int;
}

type failure = {
  trial : int;
  family : Gen.family;
  kind : string;
  failed_backend : Oracle.backend option;
  detail : string;
  case : Case.t;
  artifact : string option;
}

type report = {
  run_seed : int;
  run_trials : int;
  stats : stats list;
  failures : failure list;
}

(* --- artifact persistence ------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let artifact_json ~options ~(failure : failure) =
  Json.Object
    [
      ("kind", Json.String failure.kind);
      ( "backend",
        match failure.failed_backend with
        | Some b -> Json.String (Oracle.backend_to_string b)
        | None -> Json.Null );
      ("trial", Json.Number (float_of_int failure.trial));
      ("family", Json.String (Gen.family_to_string failure.family));
      ("seed", Json.Number (float_of_int options.seed));
      ("detail", Json.String failure.detail);
      ("case", Case.to_json failure.case);
    ]

let persist options failure =
  match options.artifact_dir with
  | None -> failure
  | Some dir ->
      mkdir_p dir;
      let tag =
        match failure.failed_backend with
        | Some b -> Oracle.backend_to_string b
        | None -> "invariant"
      in
      let path = Filename.concat dir (Printf.sprintf "violation_t%03d_%s.json" failure.trial tag) in
      let oc = open_out path in
      output_string oc (Json.to_string (artifact_json ~options ~failure));
      output_char oc '\n';
      close_out oc;
      { failure with artifact = Some path }

(* --- the run loop ---------------------------------------------------------- *)

type acc = {
  mutable a_cases : int;
  mutable a_samples : int;
  mutable a_agreed : int;
  mutable a_excused : int;
  mutable a_violations : int;
}

let first_violation_detail (c : Oracle.comparison) =
  match c.Oracle.violations with
  | [] -> "no violations"
  | v :: _ ->
      Printf.sprintf "sample %d: expected %d, got %d (%s)" v.Oracle.sample
        v.Oracle.expected v.Oracle.got v.Oracle.detail

let run options =
  let master = Rng.create options.seed in
  let accs =
    List.map
      (fun b ->
        (b, { a_cases = 0; a_samples = 0; a_agreed = 0; a_excused = 0; a_violations = 0 }))
      options.backends
  in
  let failures = ref [] in
  let n_fams = Stdlib.max 1 (List.length options.families) in
  for trial = 0 to options.trials - 1 do
    let rng = Rng.split master in
    let family = List.nth options.families (trial mod n_fams) in
    let case = Gen.case rng family in
    (* Backend-independent invariants first. *)
    List.iter
      (fun (inv : Oracle.invariant_failure) ->
        let still_fails c =
          List.exists
            (fun (f : Oracle.invariant_failure) -> f.Oracle.invariant = inv.Oracle.invariant)
            (Oracle.check_invariants c)
        in
        let shrunk = Shrink.shrink ~budget:options.max_shrink ~still_fails case in
        let failure =
          {
            trial;
            family;
            kind = "invariant";
            failed_backend = None;
            detail = Printf.sprintf "%s: %s" inv.Oracle.invariant inv.Oracle.detail;
            case = shrunk;
            artifact = None;
          }
        in
        failures := persist options failure :: !failures)
      (Oracle.check_invariants case);
    (* Differential comparisons. *)
    List.iter
      (fun (backend, acc) ->
        if Oracle.applicable backend case.Case.model then begin
          let cmp = Oracle.compare backend case in
          acc.a_cases <- acc.a_cases + 1;
          acc.a_samples <- acc.a_samples + cmp.Oracle.n_samples;
          acc.a_agreed <- acc.a_agreed + cmp.Oracle.agreed;
          acc.a_excused <- acc.a_excused + cmp.Oracle.excused;
          acc.a_violations <- acc.a_violations + List.length cmp.Oracle.violations;
          if cmp.Oracle.violations <> [] then begin
            let shrunk =
              Shrink.shrink ~budget:options.max_shrink
                ~still_fails:(Oracle.violates backend) case
            in
            let shrunk_cmp = Oracle.compare backend shrunk in
            let failure =
              {
                trial;
                family;
                kind = "divergence";
                failed_backend = Some backend;
                detail = first_violation_detail shrunk_cmp;
                case = shrunk;
                artifact = None;
              }
            in
            failures := persist options failure :: !failures
          end
        end)
      accs
  done;
  let stats =
    List.map
      (fun (backend, acc) ->
        {
          backend;
          cases = acc.a_cases;
          samples = acc.a_samples;
          agreed = acc.a_agreed;
          excused = acc.a_excused;
          violation_count = acc.a_violations;
        })
      accs
  in
  {
    run_seed = options.seed;
    run_trials = options.trials;
    stats;
    failures = List.rev !failures;
  }

let ok report = report.failures = []

(* --- rendering ------------------------------------------------------------- *)

let render report =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "conformance: seed=%d trials=%d\n" report.run_seed
    report.run_trials;
  Printf.bprintf buf "  %-12s %6s %8s %8s %8s %10s\n" "backend" "cases"
    "samples" "agreed" "excused" "violations";
  List.iter
    (fun s ->
      Printf.bprintf buf "  %-12s %6d %8d %8d %8d %10d\n"
        (Oracle.backend_to_string s.backend)
        s.cases s.samples s.agreed s.excused s.violation_count)
    report.stats;
  if report.failures = [] then Buffer.add_string buf "result: PASS\n"
  else begin
    Printf.bprintf buf "result: FAIL (%d failure%s)\n"
      (List.length report.failures)
      (if List.length report.failures = 1 then "" else "s");
    List.iter
      (fun f ->
        Printf.bprintf buf "  trial %d (%s) %s%s: %s\n" f.trial
          (Gen.family_to_string f.family)
          f.kind
          (match f.failed_backend with
          | Some b -> " on " ^ Oracle.backend_to_string b
          | None -> "")
          f.detail;
        Printf.bprintf buf "    shrunk to %d input row%s, size %d%s\n"
          (Case.n_inputs f.case)
          (if Case.n_inputs f.case = 1 then "" else "s")
          (Case.size f.case)
          (match f.artifact with
          | Some p -> Printf.sprintf " -> %s" p
          | None -> ""))
      report.failures
  end;
  Buffer.contents buf

(* --- replay ---------------------------------------------------------------- *)

type replay_outcome = {
  replay_case : Case.t;
  comparisons : Oracle.comparison list;
  invariant_failures : Oracle.invariant_failure list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type artifact = { artifact_case : Case.t; artifact_backends : Oracle.backend list }

let load_artifact ~path =
  let doc = Json.of_string (read_file path) in
  let case_doc = Option.value (Json.member_opt doc "case") ~default:doc in
  let case = Case.of_json case_doc in
  let backends =
    match Json.member_opt doc "backend" with
    | Some (Json.String s) -> (
        match Oracle.backend_of_string s with
        | Some b -> [ b ]
        | None -> invalid_arg (Printf.sprintf "unknown backend %S in artifact" s))
    | _ -> Oracle.all_backends
  in
  { artifact_case = case; artifact_backends = backends }

let replay { artifact_case = case; artifact_backends } =
  let comparisons =
    artifact_backends
    |> List.filter (fun b -> Oracle.applicable b case.Case.model)
    |> List.map (fun b -> Oracle.compare b case)
  in
  { replay_case = case; comparisons; invariant_failures = Oracle.check_invariants case }

let replay_ok outcome =
  outcome.invariant_failures = []
  && List.for_all (fun c -> c.Oracle.violations = []) outcome.comparisons

let render_replay outcome =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "replay: %d input row%s, size %d\n"
    (Case.n_inputs outcome.replay_case)
    (if Case.n_inputs outcome.replay_case = 1 then "" else "s")
    (Case.size outcome.replay_case);
  List.iter
    (fun (c : Oracle.comparison) ->
      Printf.bprintf buf "  %-12s agreed %d/%d excused %d violations %d\n"
        (Oracle.backend_to_string c.Oracle.backend)
        c.Oracle.agreed c.Oracle.n_samples c.Oracle.excused
        (List.length c.Oracle.violations);
      List.iter
        (fun (v : Oracle.violation) ->
          Printf.bprintf buf "    sample %d: expected %d, got %d (%s)\n"
            v.Oracle.sample v.Oracle.expected v.Oracle.got v.Oracle.detail)
        c.Oracle.violations)
    outcome.comparisons;
  List.iter
    (fun (f : Oracle.invariant_failure) ->
      Printf.bprintf buf "  invariant %s: %s\n" f.Oracle.invariant f.Oracle.detail)
    outcome.invariant_failures;
  Buffer.add_string buf
    (if replay_ok outcome then "result: PASS\n" else "result: FAIL\n");
  Buffer.contents buf
