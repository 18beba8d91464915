module Model_ir = Homunculus_backends.Model_ir
module Inference = Homunculus_backends.Inference
module Runtime = Homunculus_backends.Runtime
module Spatial = Homunculus_backends.Spatial
module Spatial_ir = Homunculus_backends.Spatial_ir
module P4gen = Homunculus_backends.P4gen
module P4_ir = Homunculus_backends.P4_ir
module Iisy = Homunculus_backends.Iisy
module Ir_io = Homunculus_backends.Ir_io
module Decision_tree = Homunculus_ml.Decision_tree

type backend = Spatial | Mat_runtime | P4

let all_backends = [ Spatial; Mat_runtime; P4 ]

let backend_to_string = function
  | Spatial -> "spatial"
  | Mat_runtime -> "runtime"
  | P4 -> "p4"

let backend_of_string = function
  | "spatial" -> Some Spatial
  | "runtime" -> Some Mat_runtime
  | "p4" -> Some P4
  | _ -> None

let applicable backend model =
  match (backend, model) with
  | (Mat_runtime | P4), Model_ir.Dnn _ -> false
  | _ -> true

let kmeans_agreement_floor = 0.9

type violation = { sample : int; expected : int; got : int; detail : string }

type comparison = {
  backend : backend;
  n_samples : int;
  agreed : int;
  excused : int;
  violations : violation list;
}

(* --- tolerance helpers --------------------------------------------------- *)

(* Reference margin between the winning label and a challenger; the
   challenger index may come from a buggy backend, so guard the bounds. *)
let margin_between scores ~winner ~challenger =
  if challenger < 0 || challenger >= Array.length scores then infinity
  else scores.(winner) -. scores.(challenger)

let top_two_margin scores =
  let winner = Homunculus_util.Stats.argmax scores in
  let second = ref neg_infinity in
  Array.iteri (fun i s -> if i <> winner && s > !second then second := s) scores;
  if !second = neg_infinity then infinity else scores.(winner) -. !second

let near_tie scores =
  let m = top_two_margin scores in
  m <= 1e-6 *. (1. +. Float.abs scores.(Homunculus_util.Stats.argmax scores))

(* Trees: is the sample within [tol_keys] quantization steps (at per-feature
   scale [scales.(f)]) of any split threshold? If not, quantized and exact
   walks take identical paths. *)
let tree_near_split ~scales ~tol_keys root x =
  let rec scan = function
    | Decision_tree.Leaf _ -> false
    | Decision_tree.Split { feature; threshold; left; right } ->
        Float.abs ((x.(feature) -. threshold) *. scales.(feature))
        <= tol_keys +. 1e-9
        || scan left || scan right
  in
  scan root

(* SVMs under the runtime's encoding: keys are round(x * s_f), weights are
   round(w * 65536 / s_f), biases round(b * 65536). Worst-case absolute
   error of one quantized score row, in 65536-score units. *)
let svm_row_error ~scales w x =
  let acc = ref 0.5 (* bias rounding *) in
  Array.iteri
    (fun f wf ->
      acc :=
        !acc
        +. (0.5 *. Float.abs wf *. 65536. /. scales.(f))
        +. (0.5 *. Float.abs x.(f) *. scales.(f))
        +. 0.25)
    w;
  !acc

(* --- per-backend comparison --------------------------------------------- *)

let sample_compare ~excused_when case got_of =
  let n = Array.length case.Case.inputs in
  let agreed = ref 0 and excused = ref 0 and violations = ref [] in
  for i = 0 to n - 1 do
    let x = case.Case.inputs.(i) in
    let expected = Inference.predict case.Case.model x in
    let got = got_of x in
    if got = expected then incr agreed
    else
      match excused_when x ~expected ~got with
      | Some _ -> incr excused
      | None ->
          violations :=
            {
              sample = i;
              expected;
              got;
              detail =
                Printf.sprintf "label %d != reference %d on sample %d" got
                  expected i;
            }
            :: !violations
  done;
  (!agreed, !excused, List.rev !violations)

let spatial_excuse model x ~expected:_ ~got:_ =
  let scores = Inference.scores model x in
  if near_tie scores then Some "near-tie"
  else
    match model with
    | Model_ir.Tree { root; _ } ->
        (* Thresholds are printed with %.6f into the Spatial source. *)
        if tree_near_split ~scales:(Array.make (Array.length x) 1.) ~tol_keys:2e-6 root x
        then Some "printed-threshold rounding"
        else None
    | _ -> None

let quantized_excuse ~scales model x ~expected ~got =
  match model with
  | Model_ir.Tree { root; _ } ->
      if tree_near_split ~scales ~tol_keys:1. root x then
        Some "within one key unit of a split"
      else None
  | Model_ir.Svm { class_weights; _ } ->
      let scores = Inference.scores model x in
      let row_error c = svm_row_error ~scales class_weights.(c) x in
      if
        got >= 0
        && got < Array.length class_weights
        && 65536. *. margin_between scores ~winner:expected ~challenger:got
           <= row_error expected +. row_error got +. 2.
      then Some "margin inside fixed-point error bound"
      else None
  | Model_ir.Kmeans _ | Model_ir.Dnn _ -> None

(* KMeans cells are lossy by design: the rule is an aggregate agreement
   floor over the batch. *)
let kmeans_compare backend case got_all =
  let expected = Inference.predict_all case.Case.model case.Case.inputs in
  let n = Array.length expected in
  let agreed = ref 0 and first_disagreement = ref None in
  Array.iteri
    (fun i e ->
      if got_all.(i) = e then incr agreed
      else if !first_disagreement = None then first_disagreement := Some i)
    expected;
  let rate = float_of_int !agreed /. float_of_int (Stdlib.max 1 n) in
  if n = 0 || rate >= kmeans_agreement_floor then
    { backend; n_samples = n; agreed = !agreed; excused = n - !agreed; violations = [] }
  else
    let i = Option.value !first_disagreement ~default:0 in
    {
      backend;
      n_samples = n;
      agreed = !agreed;
      excused = 0;
      violations =
        [
          {
            sample = i;
            expected = expected.(i);
            got = got_all.(i);
            detail =
              Printf.sprintf "cluster agreement %.3f below floor %.2f" rate
                kmeans_agreement_floor;
          };
        ];
    }

let compare_exn backend case =
  let model = case.Case.model in
  let n = Array.length case.Case.inputs in
  match backend with
  | Spatial ->
      let program = Spatial.program_of model in
      let agreed, excused, violations =
        sample_compare ~excused_when:(spatial_excuse model) case
          (Spatial_eval.predict program)
      in
      { backend; n_samples = n; agreed; excused; violations }
  | Mat_runtime | P4 -> (
      (* The P4 path executes the printed dump, parsed back, with the
         runtime's own executor. *)
      let rt =
        if backend = Mat_runtime then Runtime.load model
        else Runtime.of_entries (P4_eval.parse (P4gen.emit_entries model))
      in
      match model with
      | Model_ir.Kmeans _ ->
          kmeans_compare backend case (Runtime.classify_all rt case.Case.inputs)
      | _ ->
          let agreed, excused, violations =
            sample_compare
              ~excused_when:
                (quantized_excuse ~scales:(Runtime.feature_scales rt) model)
              case (Runtime.classify rt)
          in
          { backend; n_samples = n; agreed; excused; violations })

let compare backend case =
  try compare_exn backend case with
  | Spatial_eval.Unsupported msg ->
      {
        backend;
        n_samples = Array.length case.Case.inputs;
        agreed = 0;
        excused = 0;
        violations =
          [ { sample = -1; expected = -1; got = -1;
              detail = "spatial interpreter rejected the program: " ^ msg } ];
      }
  | P4_eval.Bad_entries msg ->
      {
        backend;
        n_samples = Array.length case.Case.inputs;
        agreed = 0;
        excused = 0;
        violations =
          [ { sample = -1; expected = -1; got = -1;
              detail = "entries dump rejected: " ^ msg } ];
      }
  | Invalid_argument msg ->
      {
        backend;
        n_samples = Array.length case.Case.inputs;
        agreed = 0;
        excused = 0;
        violations =
          [ { sample = -1; expected = -1; got = -1;
              detail = "backend raised Invalid_argument: " ^ msg } ];
      }

let violates backend case = (compare backend case).violations <> []

(* --- backend-independent invariants -------------------------------------- *)

type invariant_failure = { invariant : string; detail : string }

let mat_mappable = function Model_ir.Dnn _ -> false | _ -> true

let check_roundtrip case acc =
  let model = case.Case.model in
  try
    let reloaded = Ir_io.of_json (Ir_io.to_json model) in
    match Model_ir.validate reloaded with
    | Error msg ->
        { invariant = "ir_io-roundtrip"; detail = "reloaded model invalid: " ^ msg }
        :: acc
    | Ok () ->
        let before = Inference.predict_all model case.Case.inputs in
        let after = Inference.predict_all reloaded case.Case.inputs in
        if before = after then acc
        else
          { invariant = "ir_io-roundtrip";
            detail = "reloaded model changes verdicts" }
          :: acc
  with exn ->
    { invariant = "ir_io-roundtrip"; detail = Printexc.to_string exn } :: acc

let check_resource_monotone case acc =
  let model = case.Case.model in
  if not (mat_mappable model) then acc
  else
    try
      let report epf =
        let m = Iisy.map_model ~entries_per_feature:epf model in
        ( List.fold_left (fun t (tbl : Iisy.table) -> t + tbl.Iisy.entries) 0
            m.Iisy.tables,
          Iisy.max_entries m )
      in
      let r32 = report 32 and r64 = report 64 and r128 = report 128 in
      let mono (t1, m1) (t2, m2) = t1 <= t2 && m1 <= m2 in
      if mono r32 r64 && mono r64 r128 then acc
      else
        { invariant = "resource-monotonicity";
          detail = "IIsy entry counts shrink as granularity grows" }
        :: acc
    with exn ->
      { invariant = "resource-monotonicity"; detail = Printexc.to_string exn }
      :: acc

let check_p4_structure case acc =
  let model = case.Case.model in
  if not (mat_mappable model) then acc
  else
    try
      let program = P4gen.program_of model in
      let mapping = Iisy.map_model model in
      let acc =
        if P4_ir.table_count program >= Iisy.n_tables mapping then acc
        else
          { invariant = "p4-table-count";
            detail =
              Printf.sprintf "program declares %d tables, mapping claims %d"
                (P4_ir.table_count program) (Iisy.n_tables mapping) }
          :: acc
      in
      match P4_eval.validate_against program (P4gen.emit_entries model) with
      | Ok () -> acc
      | Error msg -> { invariant = "p4-entries-valid"; detail = msg } :: acc
    with exn ->
      { invariant = "p4-structure"; detail = Printexc.to_string exn } :: acc

let check_spatial_structure case acc =
  try
    let program = Spatial.program_of case.Case.model in
    if
      Spatial_ir.count_statements program > 0
      && String.length (Spatial_ir.print program) > 0
    then acc
    else
      { invariant = "spatial-nonempty"; detail = "emitted program is empty" }
      :: acc
  with exn ->
    { invariant = "spatial-structure"; detail = Printexc.to_string exn } :: acc

let check_invariants case =
  []
  |> check_roundtrip case
  |> check_resource_monotone case
  |> check_p4_structure case
  |> check_spatial_structure case
  |> List.rev
