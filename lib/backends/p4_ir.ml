type field = { field_name : string; width : int; signed : bool }

type header = { header_name : string; fields : field list }

type match_kind = Exact | Ternary | Range | Lpm

let match_kind_to_string = function
  | Exact -> "exact"
  | Ternary -> "ternary"
  | Range -> "range"
  | Lpm -> "lpm"

type key = { target : string; kind : match_kind }

type action = {
  action_name : string;
  params : field list;
  body : string list;
}

type table = {
  table_name : string;
  keys : key list;
  action_refs : string list;
  size : int;
}

type apply_stmt =
  | Apply of string
  | Call of string
  | If_hit of { table : string; then_ : apply_stmt list; else_ : apply_stmt list }

type control = {
  control_name : string;
  actions : action list;
  tables : table list;
  apply : apply_stmt list;
}

type program = {
  program_name : string;
  headers : header list;
  metadata : field list;
  ingress : control;
}

type tree =
  | Leaf of int
  | Split of { feature : int; threshold : int; left : tree; right : tree }

type tables =
  | Kmeans_cells of { cells : (int * int) array array; centroids : int array array }
  | Svm_votes of { weights : int array array; biases : int array }
  | Tree_rows of tree

type entries = { scales : float array; tables : tables }

let bpf = Printf.bprintf

let type_name f = Printf.sprintf "%s<%d>" (if f.signed then "int" else "bit") f.width

let print_header buf h =
  bpf buf "header %s {\n" h.header_name;
  List.iter (fun f -> bpf buf "  %s %s;\n" (type_name f) f.field_name) h.fields;
  bpf buf "}\n\n"

let print_action buf a =
  let params =
    String.concat ", "
      (List.map (fun f -> Printf.sprintf "%s %s" (type_name f) f.field_name) a.params)
  in
  bpf buf "  action %s(%s) {" a.action_name params;
  (match a.body with
  | [] -> bpf buf " }\n"
  | body ->
      bpf buf "\n";
      (* A block statement ends in its own brace, not a semicolon. *)
      List.iter
        (fun stmt ->
          bpf buf "    %s%s\n" stmt
            (if String.ends_with ~suffix:"}" stmt then "" else ";"))
        body;
      bpf buf "  }\n")

let print_table buf t =
  bpf buf "  table %s {\n    key = {\n" t.table_name;
  List.iter
    (fun k -> bpf buf "      %s : %s;\n" k.target (match_kind_to_string k.kind))
    t.keys;
  bpf buf "    }\n    actions = { %s; }\n" (String.concat "; " t.action_refs);
  bpf buf "    size = %d;\n  }\n\n" t.size

let rec print_apply buf indent stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Apply table -> bpf buf "%s%s.apply();\n" pad table
  | Call text -> bpf buf "%s%s;\n" pad text
  | If_hit { table; then_ = []; else_ } ->
      bpf buf "%sif (!%s.apply().hit) {\n" pad table;
      List.iter (print_apply buf (indent + 2)) else_;
      bpf buf "%s}\n" pad
  | If_hit { table; then_; else_ } ->
      bpf buf "%sif (%s.apply().hit) {\n" pad table;
      List.iter (print_apply buf (indent + 2)) then_;
      if else_ <> [] then begin
        bpf buf "%s} else {\n" pad;
        List.iter (print_apply buf (indent + 2)) else_
      end;
      bpf buf "%s}\n" pad

let print program =
  let buf = Buffer.create 8192 in
  bpf buf "// Auto-generated by Homunculus backend: %s\n" program.program_name;
  bpf buf "#include <core.p4>\n#include <v1model.p4>\n\n";
  List.iter (print_header buf) program.headers;
  bpf buf "struct headers_t {\n";
  List.iter
    (fun h ->
      let instance =
        match String.index_opt h.header_name '_' with
        | Some i -> String.sub h.header_name 0 i
        | None -> h.header_name
      in
      bpf buf "  %s %s;\n" h.header_name instance)
    program.headers;
  bpf buf "}\n\n";
  bpf buf "struct metadata_t {\n";
  List.iter (fun f -> bpf buf "  %s %s;\n" (type_name f) f.field_name) program.metadata;
  bpf buf "}\n\n";
  bpf buf
    "parser IngressParser(packet_in pkt, out headers_t hdr,\n\
    \                     inout metadata_t meta,\n\
    \                     inout standard_metadata_t std) {\n\
    \  state start {\n";
  List.iter
    (fun h ->
      let instance =
        match String.index_opt h.header_name '_' with
        | Some i -> String.sub h.header_name 0 i
        | None -> h.header_name
      in
      bpf buf "    pkt.extract(hdr.%s);\n" instance)
    program.headers;
  bpf buf "    transition accept;\n  }\n}\n\n";
  bpf buf "control %s(inout headers_t hdr, inout metadata_t meta,\n"
    program.ingress.control_name;
  bpf buf "                inout standard_metadata_t std) {\n";
  List.iter (print_action buf) program.ingress.actions;
  bpf buf "\n";
  List.iter (print_table buf) program.ingress.tables;
  bpf buf "  apply {\n";
  List.iter (print_apply buf 4) program.ingress.apply;
  bpf buf "  }\n}\n\n";
  bpf buf "control Deparser(packet_out pkt, in headers_t hdr) {\n  apply {";
  List.iter
    (fun h ->
      let instance =
        match String.index_opt h.header_name '_' with
        | Some i -> String.sub h.header_name 0 i
        | None -> h.header_name
      in
      bpf buf " pkt.emit(hdr.%s);" instance)
    program.headers;
  bpf buf " }\n}\n\n";
  bpf buf "V1Switch(IngressParser(), %s(), Deparser()) main;\n"
    program.ingress.control_name;
  Buffer.contents buf

let table_count program = List.length program.ingress.tables

let total_requested_entries program =
  List.fold_left (fun acc t -> acc + t.size) 0 program.ingress.tables

let field_width program reference =
  (* "meta.x" -> metadata lookup; "hdr.h.f" -> header lookup; else 16. *)
  match String.split_on_char '.' reference with
  | [ "meta"; name ] -> (
      match List.find_opt (fun f -> f.field_name = name) program.metadata with
      | Some f -> f.width
      | None -> 16)
  | [ "hdr"; instance; name ] -> (
      let matches h =
        match String.index_opt h.header_name '_' with
        | Some i -> String.sub h.header_name 0 i = instance
        | None -> h.header_name = instance
      in
      match List.find_opt matches program.headers with
      | Some h -> (
          match List.find_opt (fun f -> f.field_name = name) h.fields with
          | Some f -> f.width
          | None -> 16)
      | None -> 16)
  | _ -> 16

let key_bits table program =
  List.fold_left (fun acc k -> acc + field_width program k.target) 0 table.keys

let merge ~name programs =
  if programs = [] then invalid_arg "P4_ir.merge: no programs";
  let dedup_by what key items =
    List.fold_left
      (fun acc item ->
        match List.find_opt (fun x -> key x = key item) acc with
        | None -> acc @ [ item ]
        | Some x when x = item -> acc
        | Some _ ->
            invalid_arg
              (Printf.sprintf "P4_ir.merge: %s %s declared two ways" what (key item)))
      [] items
  in
  let headers =
    dedup_by "header" (fun h -> h.header_name) (List.concat_map (fun p -> p.headers) programs)
  in
  let metadata =
    dedup_by "metadata field" (fun f -> f.field_name) (List.concat_map (fun p -> p.metadata) programs)
  in
  let tables = List.concat_map (fun p -> p.ingress.tables) programs in
  let table_names = List.map (fun t -> t.table_name) tables in
  if List.length (List.sort_uniq compare table_names) <> List.length table_names
  then invalid_arg "P4_ir.merge: duplicate table names";
  {
    program_name = name;
    headers;
    metadata;
    ingress =
      {
        control_name = "Ingress";
        actions =
          dedup_by "action"
            (fun a -> a.action_name)
            (List.concat_map (fun p -> p.ingress.actions) programs);
        tables;
        apply = List.concat_map (fun p -> p.ingress.apply) programs;
      };
  }
