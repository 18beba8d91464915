(** An abstract syntax for the P4-16 programs the MAT backend emits.

    Like {!Spatial_ir} for the Taurus path, representing the generated
    switch program as an AST lets the backend analyze it (table count, key
    widths, worst-case entry budget) and lets multi-model schedules compose
    programs before printing, instead of concatenating strings. The printer
    targets the v1model architecture. *)

type field = { field_name : string; width : int; signed : bool }
(** Printed as [int<width>] when [signed], [bit<width>] otherwise. *)

type header = { header_name : string; fields : field list }

type match_kind = Exact | Ternary | Range | Lpm

val match_kind_to_string : match_kind -> string

type key = { target : string; kind : match_kind }
(** e.g. [{ target = "meta.feature0_key"; kind = Range }]. *)

type action = {
  action_name : string;
  params : field list;
  body : string list;  (** statements, printed verbatim *)
}

type table = {
  table_name : string;
  keys : key list;
  action_refs : string list;
  size : int;  (** requested entries *)
}

type apply_stmt =
  | Apply of string  (** table.apply() *)
  | Call of string  (** action or extern invocation *)
  | If_hit of { table : string; then_ : apply_stmt list; else_ : apply_stmt list }
      (** With an empty [then_], printed as [if (!t.apply().hit) { else_ }]. *)

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

(** {2 Control-plane entries}

    The rows the control plane installs into the tables {!P4gen.program_of}
    declares: {!Runtime.entries} builds them, {!Runtime.of_entries}
    executes them, {!P4gen.print_entries} prints them. Feature [f] keys as
    [x.(f) *. scales.(f)] rounded half away from zero and saturated to the
    signed 16-bit range; every integer below is in that key space. *)

type tree =
  | Leaf of int  (** the class *)
  | Split of { feature : int; threshold : int; left : tree; right : tree }
      (** a key [<= threshold] goes left *)

type tables =
  | Kmeans_cells of { cells : (int * int) array array; centroids : int array array }
      (** Per cluster and feature: the cell's inclusive key range, and the
          quantized centroid. The first cluster whose cell holds every key
          wins; a miss goes to the nearest centroid (first minimum). *)
  | Svm_votes of { weights : int array array; biases : int array }
      (** Per class: weights scaled so [weight * key ~ 65536 * w * x], and a
          16.16 bias. The first class with the highest score wins. *)
  | Tree_rows of tree

type entries = { scales : float array; tables : tables }

val print : program -> string
(** The complete P4-16 source: includes, header/struct declarations, parser,
    the ingress control, deparser, and the V1Switch instantiation. *)

(** Analyses: *)

val table_count : program -> int
val total_requested_entries : program -> int
val key_bits : table -> program -> int
(** Summed width of a table's match keys (metadata fields and header fields
    are looked up; unknown references count 16 bits). *)

val merge : name:string -> program list -> program
(** One program hosting several models: headers, metadata fields and
    actions are unioned by name, tables concatenated, apply blocks run in
    order. A name declared twice must be declared the same way, or one
    model would read or write another's field.
    @raise Invalid_argument on [], on duplicate table names, or on a
    header, metadata field or action name whose two declarations differ
    (e.g. one field name with two types). *)
