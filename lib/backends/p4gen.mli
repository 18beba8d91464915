(** P4-16 code generation for MAT-based switches, following the IIsy mapping
    (paper §4: "we use IIsy as a backend for mapping ML algorithms ... to
    MATs").

    Feature values are quantized into range keys; each model component
    becomes a table whose entries are computed from the trained parameters
    at control-plane install time. The emitted program contains the full
    ingress control flow; table entries themselves ship separately via
    {!emit_entries} (as a P4Runtime-style text dump), matching how IIsy
    splits data plane and control plane. *)

val program_of : Model_ir.t -> P4_ir.program
(** Build the P4 AST for a model under the IIsy mapping rules. Supported:
    KMeans, SVM, Tree (the algorithms IIsy maps); DNNs raise
    [Invalid_argument] — the MAT backend rejects them during candidate
    filtering instead. *)

val emit : Model_ir.t -> string
(** [P4_ir.print (program_of model)] — the P4-16 program: headers, parser,
    per-component tables, ingress apply chain, deparser. *)

val print_entries : name:string -> P4_ir.entries -> string
(** The control-plane text dump of [entries] for the tables of the model
    called [name]: a [scale f<i> <s>] line per feature, then for k-means
    one [table_add <name>_cluster<c> set_class lo->hi ... => c] range row
    and one [table_set_default <name>_cluster<c> <name>_centroid<c> q ...]
    per cluster; for SVMs a [weight] row per nonzero weight and a [bias]
    row per class; for trees a [le] row per split and a [leaf] row per
    leaf, in preorder. Every integer prints in decimal, signed. *)

val emit_entries : ?entries_per_feature:int -> Model_ir.t -> string
(** [print_entries] of {!Runtime.entries} for the model: exactly the tables
    {!Runtime.load} executes with the same [entries_per_feature]. *)
