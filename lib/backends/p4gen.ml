(* The MAT backend: build a P4_ir program from the model IR using the IIsy
   mapping rules, then pretty-print it. Table entries (the control-plane
   half) are the value [Runtime.entries] builds, printed by
   [print_entries]. *)

module Decision_tree = Homunculus_ml.Decision_tree

let bit field_name width = { P4_ir.field_name; width; signed = false }

let int field_name width = { P4_ir.field_name; width; signed = true }

let standard_headers =
  [
    {
      P4_ir.header_name = "ethernet_t";
      fields = [ bit "dst" 48; bit "src" 48; bit "etherType" 16 ];
    };
    {
      P4_ir.header_name = "ipv4_t";
      fields =
        [ bit "ttl" 8; bit "protocol" 8; bit "totalLen" 16; bit "src" 32; bit "dst" 32 ];
    };
  ]

(* Feature keys are signed 16-bit fixed point (see [Runtime.entries]) and
   shared by a bundle's models; votes, verdict and verdict action are named
   after the model, so merged models never write each other's fields. *)
let vote name c = Printf.sprintf "%s_vote%d" name c
let class_result name = name ^ "_class_result"
let set_class name = name ^ "_set_class"

let metadata name ~n_features ~votes =
  List.init n_features (fun f -> int (Printf.sprintf "feature%d_key" f) 16)
  @ votes
  @ [ bit (class_result name) 8 ]

let vote_fields name n = List.init n (fun c -> bit (vote name c) 16)

let set_class_action name =
  {
    P4_ir.action_name = set_class name;
    params = [ bit "cls" 8 ];
    body = [ Printf.sprintf "meta.%s = cls" (class_result name) ];
  }

(* SVM weights are signed and exceed 16 bits at calibrated scales. *)
let set_vote =
  { P4_ir.action_name = "set_vote"; params = [ int "v" 32 ]; body = [] }

let feature_key f = Printf.sprintf "meta.feature%d_key" f

let range_keys dim =
  List.init dim (fun f -> { P4_ir.target = feature_key f; kind = P4_ir.Range })

let entries_per_feature_default = 64

let ingress ~actions ~tables =
  {
    P4_ir.control_name = "Ingress";
    actions;
    tables;
    apply = List.map (fun t -> P4_ir.Apply t.P4_ir.table_name) tables;
  }

(* The k-means rule, stated in the program: cluster tables apply in order
   and the first hit sets the class; each miss runs the table's default
   action, which stores the squared key distance to that cluster's centroid
   (installed as action data) in [vote<c>]; when every table missed,
   [<name>_nearest] picks the first minimum. *)
let kmeans_program name centroids =
  let k = Array.length centroids in
  let dim = if k = 0 then 0 else Array.length centroids.(0) in
  let cluster c = Printf.sprintf "%s_cluster%d" name c in
  let centroid c = Printf.sprintf "%s_centroid%d" name c in
  let centroid_action c =
    let squares = List.init dim (fun f -> Printf.sprintf "d%d * d%d" f f) in
    {
      P4_ir.action_name = centroid c;
      params = List.init dim (fun f -> int (Printf.sprintf "q%d" f) 16);
      body =
        List.init dim (fun f ->
            Printf.sprintf "int<64> d%d = (int<64>)%s - (int<64>)q%d" f
              (feature_key f) f)
        @ [
            Printf.sprintf "meta.%s = %s" (vote name c)
              (if squares = [] then "0" else String.concat " + " squares);
          ];
    }
  in
  let nearest =
    {
      P4_ir.action_name = name ^ "_nearest";
      params = [];
      body =
        Printf.sprintf "meta.%s = 0" (class_result name)
        :: List.init (Stdlib.max 0 (k - 1)) (fun i ->
               let v = vote name (i + 1) and v0 = vote name 0 in
               Printf.sprintf
                 "if (meta.%s < meta.%s) { meta.%s = meta.%s; meta.%s = %d; }"
                 v v0 v0 v (class_result name) (i + 1));
    }
  in
  let tables =
    List.init k (fun c ->
        {
          P4_ir.table_name = cluster c;
          keys = range_keys dim;
          action_refs = [ set_class name; centroid c ];
          size = entries_per_feature_default * Stdlib.max 1 dim;
        })
  in
  let rec chain c =
    if c = k then [ P4_ir.Call (name ^ "_nearest()") ]
    else [ P4_ir.If_hit { table = cluster c; then_ = []; else_ = chain (c + 1) } ]
  in
  {
    P4_ir.program_name = name;
    headers = standard_headers;
    metadata =
      metadata name ~n_features:dim
        ~votes:(List.init k (fun c -> int (vote name c) 64));
    ingress =
      {
        (ingress
           ~actions:
             ((set_class_action name :: List.init k centroid_action) @ [ nearest ])
           ~tables)
        with
        P4_ir.apply = chain 0;
      };
  }

let svm_program name class_weights =
  let classes = Array.length class_weights in
  let dim = if classes = 0 then 0 else Array.length class_weights.(0) in
  let feature_tables =
    List.init dim (fun f ->
        {
          P4_ir.table_name = Printf.sprintf "%s_feature%d" name f;
          keys = [ { P4_ir.target = feature_key f; kind = P4_ir.Range } ];
          action_refs = [ "set_vote" ];
          size = entries_per_feature_default;
        })
  in
  let decision =
    {
      P4_ir.table_name = name ^ "_decision";
      keys = [ { P4_ir.target = "meta." ^ vote name 0; kind = P4_ir.Exact } ];
      action_refs = [ set_class name ];
      size = Stdlib.max 1 classes;
    }
  in
  {
    P4_ir.program_name = name;
    headers = standard_headers;
    metadata = metadata name ~n_features:dim ~votes:(vote_fields name classes);
    ingress =
      ingress
        ~actions:[ set_class_action name; set_vote ]
        ~tables:(feature_tables @ [ decision ]);
  }

let tree_program name root n_features =
  let depth = Decision_tree.depth root in
  let level_tables =
    List.init depth (fun level ->
        {
          P4_ir.table_name = Printf.sprintf "%s_level%d" name level;
          keys = range_keys n_features;
          action_refs = [ "set_vote" ];
          size = (1 lsl Stdlib.min level 12) * 2;
        })
  in
  let leaves =
    {
      P4_ir.table_name = name ^ "_leaves";
      keys = [ { P4_ir.target = "meta." ^ vote name 0; kind = P4_ir.Exact } ];
      action_refs = [ set_class name ];
      size = Decision_tree.n_leaves root;
    }
  in
  {
    P4_ir.program_name = name;
    headers = standard_headers;
    metadata =
      metadata name ~n_features ~votes:(vote_fields name (Stdlib.max 1 depth));
    ingress =
      ingress
        ~actions:[ set_class_action name; set_vote ]
        ~tables:(level_tables @ [ leaves ]);
  }

let program_of model =
  match model with
  | Model_ir.Kmeans { name; centroids } -> kmeans_program name centroids
  | Model_ir.Svm { name; class_weights; _ } -> svm_program name class_weights
  | Model_ir.Tree { name; root; n_features; _ } -> tree_program name root n_features
  | Model_ir.Dnn _ ->
      invalid_arg "P4gen.emit: DNNs are not mappable to MATs (use Taurus/FPGA)"

let emit model = P4_ir.print (program_of model)

(* The control-plane dump: the scales, then one line per table row. Cluster
   cells print in the [range] match kind the cluster tables declare, with
   the centroid as each table's default action data. *)
let print_entries ~name { P4_ir.scales; tables } =
  let buf = Buffer.create 4096 in
  let bpf = Printf.bprintf in
  bpf buf "# table entries for %s\n" name;
  Array.iteri (fun f s -> bpf buf "scale f%d %.17g\n" f s) scales;
  (match tables with
  | P4_ir.Kmeans_cells { cells; centroids } ->
      Array.iteri
        (fun c cell ->
          bpf buf "table_add %s_cluster%d %s" name c (set_class name);
          Array.iter (fun (lo, hi) -> bpf buf " %d->%d" lo hi) cell;
          bpf buf " => %d\n" c;
          bpf buf "table_set_default %s_cluster%d %s_centroid%d" name c name c;
          Array.iter (bpf buf " %d") centroids.(c);
          Buffer.add_char buf '\n')
        cells
  | P4_ir.Svm_votes { weights; biases } ->
      Array.iteri
        (fun cls w ->
          Array.iteri
            (fun f wf ->
              if wf <> 0 then
                bpf buf "table_add %s_feature%d set_vote %d => weight %d\n" name
                  f cls wf)
            w;
          bpf buf "table_add %s_decision %s %d => bias %d\n" name
            (set_class name) cls biases.(cls))
        weights
  | P4_ir.Tree_rows root ->
      let rec walk node level idx =
        match node with
        | P4_ir.Leaf cls ->
            bpf buf "table_add %s_leaves %s %d => leaf %d\n" name (set_class name)
              cls idx
        | P4_ir.Split { feature; threshold; left; right } ->
            bpf buf "table_add %s_level%d set_vote %d => feature %d le %d\n"
              name level idx feature threshold;
            walk left (level + 1) (2 * idx);
            walk right (level + 1) ((2 * idx) + 1)
      in
      walk root 0 0);
  Buffer.contents buf

let emit_entries ?entries_per_feature model =
  print_entries ~name:(Model_ir.name model)
    (Runtime.entries ?entries_per_feature model)
