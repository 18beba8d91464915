(* Dataset CSV I/O. *)
open Homunculus_ml
module Rng = Homunculus_util.Rng

let sample_dataset =
  Dataset.create
    ~feature_names:[| "frame_size"; "ttl" |]
    ~x:[| [| 1400.5; 64. |]; [| 90.25; 255. |]; [| 0.001; 128. |] |]
    ~y:[| 0; 1; 2 |] ~n_classes:3 ()

let test_csv_roundtrip () =
  let back = Dataset_io.of_csv (Dataset_io.to_csv sample_dataset) in
  Alcotest.(check (array string)) "names" sample_dataset.Dataset.feature_names
    back.Dataset.feature_names;
  Alcotest.(check bool) "x exact" true (back.Dataset.x = sample_dataset.Dataset.x);
  Alcotest.(check (array int)) "y" sample_dataset.Dataset.y back.Dataset.y;
  Alcotest.(check int) "classes inferred" 3 back.Dataset.n_classes

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "homunculus" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset_io.save ~path sample_dataset;
      let back = Dataset_io.load path in
      Alcotest.(check bool) "file roundtrip" true
        (back.Dataset.x = sample_dataset.Dataset.x))

let test_csv_custom_label_column () =
  let text = "label,a\n1,0.5\n0,0.25\n" in
  let d = Dataset_io.of_csv text in
  Alcotest.(check (array string)) "a only" [| "a" |] d.Dataset.feature_names;
  Alcotest.(check (array int)) "labels from first column" [| 1; 0 |] d.Dataset.y

let test_csv_rejects_ragged () =
  Alcotest.(check bool) "ragged" true
    (try ignore (Dataset_io.of_csv "a,label\n1,0\n1,2,3\n"); false
     with Invalid_argument msg ->
       (* The error names the offending line. *)
       String.length msg > 0 && String.contains msg '3')

let test_csv_rejects_bad_label () =
  Alcotest.(check bool) "fractional label" true
    (try ignore (Dataset_io.of_csv "a,label\n1,0.5\n"); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing label column" true
    (try ignore (Dataset_io.of_csv "a,b\n1,2\n"); false
     with Invalid_argument _ -> true)

let test_csv_rejects_non_numeric () =
  Alcotest.(check bool) "text cell" true
    (try ignore (Dataset_io.of_csv "a,label\nfoo,0\n"); false
     with Invalid_argument _ -> true)

let test_csv_big_roundtrip () =
  let rng = Rng.create 1 in
  let d = Homunculus_netdata.Nslkdd.generate rng ~n:200 () in
  let back = Dataset_io.of_csv (Dataset_io.to_csv d) in
  Alcotest.(check bool) "value-exact" true (back.Dataset.x = d.Dataset.x)

let suite =
  [
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
    Alcotest.test_case "csv custom label column" `Quick test_csv_custom_label_column;
    Alcotest.test_case "csv rejects ragged" `Quick test_csv_rejects_ragged;
    Alcotest.test_case "csv rejects bad label" `Quick test_csv_rejects_bad_label;
    Alcotest.test_case "csv rejects non-numeric" `Quick test_csv_rejects_non_numeric;
    Alcotest.test_case "csv big roundtrip" `Quick test_csv_big_roundtrip;
  ]
