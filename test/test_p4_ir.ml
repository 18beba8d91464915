(* The P4 AST: printer, analyses, and multi-model merging. *)
open Homunculus_backends

let has code sub =
  let n = String.length code and m = String.length sub in
  let rec go i = i + m <= n && (String.sub code i m = sub || go (i + 1)) in
  go 0

let kmeans3 = Model_ir.Kmeans { name = "tc"; centroids = Array.make_matrix 3 4 0.5 }

let svm2 =
  Model_ir.Svm
    { name = "ad"; class_weights = Array.make_matrix 2 4 0.3; biases = [| 0.; 0. |] }

let test_program_analyses () =
  let p = P4gen.program_of kmeans3 in
  Alcotest.(check int) "one table per cluster" 3 (P4_ir.table_count p);
  Alcotest.(check int) "entries requested" (3 * 64 * 4)
    (P4_ir.total_requested_entries p);
  let first = List.hd p.P4_ir.ingress.P4_ir.tables in
  (* 4 range keys of 16-bit metadata fields. *)
  Alcotest.(check int) "key bits" 64 (P4_ir.key_bits first p)

let test_key_bits_header_lookup () =
  let p = P4gen.program_of kmeans3 in
  let table =
    {
      P4_ir.table_name = "t";
      keys =
        [
          { P4_ir.target = "hdr.ipv4.ttl"; kind = P4_ir.Exact };
          { P4_ir.target = "hdr.ipv4.src"; kind = P4_ir.Lpm };
          { P4_ir.target = "meta.tc_class_result"; kind = P4_ir.Exact };
          { P4_ir.target = "unknown.thing"; kind = P4_ir.Exact };
        ];
      action_refs = [];
      size = 1;
    }
  in
  (* 8 (ttl) + 32 (src) + 8 (class_result) + 16 (fallback). *)
  Alcotest.(check int) "mixed lookups" 64 (P4_ir.key_bits table p)

let test_print_structure () =
  let code = P4_ir.print (P4gen.program_of svm2) in
  Alcotest.(check bool) "includes" true (has code "#include <v1model.p4>");
  Alcotest.(check bool) "parser extracts" true (has code "pkt.extract(hdr.ipv4)");
  Alcotest.(check bool) "range kind" true (has code " : range;");
  Alcotest.(check bool) "action param" true (has code "action ad_set_class(bit<8> cls)");
  Alcotest.(check bool) "action body" true (has code "meta.ad_class_result = cls;");
  Alcotest.(check bool) "table size" true (has code "size = 64;");
  Alcotest.(check bool) "apply order" true (has code "ad_decision.apply();");
  Alcotest.(check bool) "deparser emits" true (has code "pkt.emit(hdr.ethernet)");
  Alcotest.(check bool) "v1switch" true (has code "V1Switch(IngressParser(), Ingress(), Deparser()) main;")

let test_print_if_hit () =
  let stmt =
    P4_ir.If_hit
      { table = "t"; then_ = [ P4_ir.Call "mark_to_drop(std)" ]; else_ = [] }
  in
  let p = P4gen.program_of svm2 in
  let p =
    {
      p with
      P4_ir.ingress = { p.P4_ir.ingress with P4_ir.apply = [ stmt ] };
    }
  in
  let code = P4_ir.print p in
  Alcotest.(check bool) "hit guard" true (has code "if (t.apply().hit) {");
  Alcotest.(check bool) "drop call" true (has code "mark_to_drop(std);")

let test_merge_models () =
  let merged =
    P4_ir.merge ~name:"pipeline"
      [ P4gen.program_of kmeans3; P4gen.program_of svm2 ]
  in
  Alcotest.(check int) "tables concatenated" (3 + 5) (P4_ir.table_count merged);
  let code = P4_ir.print merged in
  Alcotest.(check bool) "kmeans tables present" true (has code "tc_cluster2");
  Alcotest.(check bool) "svm tables present" true (has code "ad_decision");
  (* Headers and actions deduplicated. *)
  let count sub =
    let rec go i acc =
      if i + String.length sub > String.length code then acc
      else if String.sub code i (String.length sub) = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one ethernet header decl" 1 (count "header ethernet_t {");
  Alcotest.(check int) "one set_vote action" 1 (count "action set_vote(");
  Alcotest.(check int) "one set_class action per model" 1 (count "action ad_set_class(")

(* Each model of a bundle writes its own verdict: an SVM merged before a
   k-means model neither shares its class field nor hides the 64-bit
   k-means distance votes behind its 16-bit ones. *)
let test_merge_keeps_model_fields () =
  let svm = P4gen.program_of svm2 in
  let merged = P4_ir.merge ~name:"pipeline" [ svm; P4gen.program_of kmeans3 ] in
  let field name =
    List.find_opt (fun f -> f.P4_ir.field_name = name) merged.P4_ir.metadata
    |> Option.map (fun f -> (f.P4_ir.width, f.P4_ir.signed))
  in
  Alcotest.(check (list (option (pair int bool))))
    "class fields, k-means votes"
    [ Some (8, false); Some (8, false); None; Some (64, true); Some (64, true) ]
    (List.map field
       [ "ad_class_result"; "tc_class_result"; "class_result"; "tc_vote0"; "tc_vote2" ]);
  let retype f =
    if f.P4_ir.field_name = "ad_vote0" then { f with P4_ir.width = 64 } else f
  in
  let retyped =
    {
      svm with
      P4_ir.metadata = List.map retype svm.P4_ir.metadata;
      ingress = { svm.P4_ir.ingress with P4_ir.tables = [] };
    }
  in
  Alcotest.check_raises "one field name, two types"
    (Invalid_argument "P4_ir.merge: metadata field ad_vote0 declared two ways")
    (fun () -> ignore (P4_ir.merge ~name:"x" [ svm; retyped ]))

let test_merge_rejects_duplicates () =
  Alcotest.check_raises "duplicate tables"
    (Invalid_argument "P4_ir.merge: duplicate table names") (fun () ->
      ignore
        (P4_ir.merge ~name:"x"
           [ P4gen.program_of kmeans3; P4gen.program_of kmeans3 ]));
  Alcotest.check_raises "empty" (Invalid_argument "P4_ir.merge: no programs")
    (fun () -> ignore (P4_ir.merge ~name:"x" []))

let test_match_kinds () =
  Alcotest.(check string) "exact" "exact" (P4_ir.match_kind_to_string P4_ir.Exact);
  Alcotest.(check string) "ternary" "ternary" (P4_ir.match_kind_to_string P4_ir.Ternary);
  Alcotest.(check string) "range" "range" (P4_ir.match_kind_to_string P4_ir.Range);
  Alcotest.(check string) "lpm" "lpm" (P4_ir.match_kind_to_string P4_ir.Lpm)

let test_balanced_output () =
  List.iter
    (fun model ->
      let code = P4gen.emit model in
      let count c =
        String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 code
      in
      Alcotest.(check int)
        (Model_ir.algorithm model ^ " braces")
        (count '{') (count '}'))
    [
      kmeans3; svm2;
      Model_ir.Tree
        {
          name = "t";
          root =
            Homunculus_ml.Decision_tree.Split
              {
                feature = 0;
                threshold = 0.5;
                left = Homunculus_ml.Decision_tree.Leaf { distribution = [| 1.; 0. |] };
                right = Homunculus_ml.Decision_tree.Leaf { distribution = [| 0.; 1. |] };
              };
          n_features = 4;
          n_classes = 2;
        };
    ]

let suite =
  [
    Alcotest.test_case "program analyses" `Quick test_program_analyses;
    Alcotest.test_case "key bits lookup" `Quick test_key_bits_header_lookup;
    Alcotest.test_case "print structure" `Quick test_print_structure;
    Alcotest.test_case "print if-hit" `Quick test_print_if_hit;
    Alcotest.test_case "merge keeps model fields" `Quick test_merge_keeps_model_fields;
    Alcotest.test_case "merge models" `Quick test_merge_models;
    Alcotest.test_case "merge rejects duplicates" `Quick test_merge_rejects_duplicates;
    Alcotest.test_case "match kinds" `Quick test_match_kinds;
    Alcotest.test_case "balanced output" `Quick test_balanced_output;
  ]
