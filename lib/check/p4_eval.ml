module P4_ir = Homunculus_backends.P4_ir

exception Bad_entries of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_entries s)) fmt

let split_ws line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* Table names look like "<model>_cluster3"; model names may themselves
   contain underscores, so match on the last role marker. *)
let role_index ~marker table =
  let ml = String.length marker and tl = String.length table in
  let rec from i =
    if i < 0 then None
    else if String.sub table i ml = marker then
      int_of_string_opt (String.sub table (i + ml) (tl - i - ml))
    else from (i - 1)
  in
  from (tl - ml)

let int what s =
  match int_of_string_opt s with Some v -> v | None -> bad "bad %s %s" what s

(* "lo->hi": neither bound contains '>', so the first "->" separates them. *)
let parse_range s =
  let rec find i =
    if i + 1 >= String.length s then bad "bad range %s" s
    else if s.[i] = '-' && s.[i + 1] = '>' then i
    else find (i + 1)
  in
  let i = find 0 in
  ( int "range bound" (String.sub s 0 i),
    int "range bound" (String.sub s (i + 2) (String.length s - i - 2)) )

type row =
  | Scale of int * float
  | Cell of int * (int * int) array
  | Centroid of int * int array
  | Weight of { cls : int; feature : int; weight : int }
  | Bias of int * int
  | Split of { level : int; idx : int; feature : int; threshold : int }
  | Leaf of { cls : int; idx : int }

(* Each model's verdict action is named after it: [<model>_set_class]. *)
let set_class action = String.ends_with ~suffix:"_set_class" action

let parse_line line =
  let role marker table =
    match role_index ~marker table with
    | Some i -> i
    | None -> bad "unrecognized entry line: %s" line
  in
  match split_ws line with
  | [] -> None
  | first :: _ when first.[0] = '#' -> None
  | [ "scale"; f; s ] when String.length f > 1 && f.[0] = 'f' -> (
      match float_of_string_opt s with
      | Some scale ->
          Some (Scale (int "feature" (String.sub f 1 (String.length f - 1)), scale))
      | None -> bad "bad scale %s" s)
  | [ "table_add"; table; action; cls; "=>"; "bias"; b ]
    when set_class action && String.ends_with ~suffix:"_decision" table ->
      Some (Bias (int "class" cls, int "bias" b))
  | [ "table_add"; table; action; cls; "=>"; "leaf"; idx ]
    when set_class action && String.ends_with ~suffix:"_leaves" table ->
      Some (Leaf { cls = int "class" cls; idx = int "leaf" idx })
  | [ "table_add"; table; "set_vote"; cls; "=>"; "weight"; w ] ->
      Some
        (Weight
           { cls = int "class" cls; feature = role "_feature" table; weight = int "weight" w })
  | [ "table_add"; table; "set_vote"; idx; "=>"; "feature"; f; "le"; q ] ->
      Some
        (Split
           {
             level = role "_level" table;
             idx = int "split index" idx;
             feature = int "feature" f;
             threshold = int "threshold" q;
           })
  | "table_add" :: table :: action :: rest when set_class action -> (
      match List.rev rest with
      | cls :: "=>" :: rev_ranges ->
          let cluster = role "_cluster" table in
          if int "class" cls <> cluster then
            bad "cluster %d cell sets class %s" cluster cls;
          Some (Cell (cluster, Array.of_list (List.rev_map parse_range rev_ranges)))
      | _ -> bad "unrecognized entry line: %s" line)
  | "table_set_default" :: table :: _action :: coords ->
      Some
        (Centroid
           (role "_cluster" table, Array.of_list (List.map (int "centroid") coords)))
  | _ -> bad "unrecognized entry line: %s" line

(* Rows keyed by an index 0 .. n-1 (by default one past the largest), each
   present exactly once. *)
let dense what ?n pairs =
  let n =
    match n with
    | Some n -> n
    | None -> List.fold_left (fun m (i, _) -> Stdlib.max m (i + 1)) 0 pairs
  in
  let out = Array.make n None in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= n || out.(i) <> None then bad "stray or duplicate %s %d" what i;
      out.(i) <- Some v)
    pairs;
  Array.mapi
    (fun i v -> match v with Some v -> v | None -> bad "missing %s %d" what i)
    out

(* Tree rows come in preorder, split and leaf rows interleaved, so a
   recursive descent that expects each (level, idx) position in turn
   rebuilds the tree (leaf rows carry only the index; the walk supplies
   the level they are at). *)
let tree_of rows =
  let rows = ref rows in
  let rec node level idx =
    match !rows with
    | Split r :: rest when r.level = level && r.idx = idx ->
        rows := rest;
        let left = node (level + 1) (2 * idx) in
        let right = node (level + 1) ((2 * idx) + 1) in
        P4_ir.Split { feature = r.feature; threshold = r.threshold; left; right }
    | Leaf r :: rest when r.idx = idx ->
        rows := rest;
        P4_ir.Leaf r.cls
    | _ -> bad "tree rows out of preorder at level %d, index %d" level idx
  in
  let root = node 0 0 in
  if !rows <> [] then bad "tree rows beyond the last leaf";
  root

let parse text =
  let rows = String.split_on_char '\n' text |> List.filter_map parse_line in
  let pick f = List.filter_map f rows in
  let scales = dense "scale" (pick (function Scale (f, s) -> Some (f, s) | _ -> None)) in
  let table_rows = List.filter (function Scale _ -> false | _ -> true) rows in
  let only family =
    if not (List.for_all family table_rows) then bad "mixed entry families in one dump"
  in
  let tables =
    match table_rows with
    | [] -> bad "empty entries dump"
    | (Cell _ | Centroid _) :: _ ->
        only (function Cell _ | Centroid _ -> true | _ -> false);
        let cells = dense "cluster cell" (pick (function Cell (c, r) -> Some (c, r) | _ -> None)) in
        let centroids =
          dense "centroid" ~n:(Array.length cells)
            (pick (function Centroid (c, q) -> Some (c, q) | _ -> None))
        in
        P4_ir.Kmeans_cells { cells; centroids }
    | (Weight _ | Bias _) :: _ ->
        only (function Weight _ | Bias _ -> true | _ -> false);
        let biases = dense "class bias" (pick (function Bias (c, b) -> Some (c, b) | _ -> None)) in
        let n_classes = Array.length biases and n_features = Array.length scales in
        let weights = Array.make_matrix n_classes n_features 0 in
        List.iter
          (function
            | Weight { cls; feature; weight } ->
                if cls < 0 || cls >= n_classes || feature < 0 || feature >= n_features
                then bad "weight row for class %d, feature %d: none declared" cls feature;
                weights.(cls).(feature) <- weight
            | _ -> ())
          table_rows;
        P4_ir.Svm_votes { weights; biases }
    | (Split _ | Leaf _) :: _ -> P4_ir.Tree_rows (tree_of table_rows)
    | Scale _ :: _ -> assert false (* filtered out above *)
  in
  { P4_ir.scales; tables }

let validate_against (program : P4_ir.program) text =
  let tables =
    List.map
      (fun tbl -> (tbl.P4_ir.table_name, tbl.P4_ir.action_refs))
      program.P4_ir.ingress.P4_ir.tables
  in
  let declared field =
    List.exists (fun m -> m.P4_ir.field_name = field) program.P4_ir.metadata
  in
  let check_line line =
    match split_ws line with
    | [] -> Ok ()
    | first :: _ when first.[0] = '#' -> Ok ()
    | ("table_add" | "table_set_default") :: table :: action :: _ -> (
        match List.assoc_opt table tables with
        | None -> Error (Printf.sprintf "entry targets undeclared table %s" table)
        | Some actions ->
            if List.mem action actions then Ok ()
            else
              Error
                (Printf.sprintf "table %s does not offer action %s" table action))
    | [ "scale"; f; _ ] ->
        let n = String.sub f 1 (String.length f - 1) in
        if f.[0] = 'f' && declared ("feature" ^ n ^ "_key") then Ok ()
        else Error (Printf.sprintf "scale for undeclared feature key %s" f)
    | _ -> Error (Printf.sprintf "unparseable entry line: %s" line)
  in
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> List.fold_left
       (fun acc line -> match acc with Error _ -> acc | Ok () -> check_line line)
       (Ok ())
