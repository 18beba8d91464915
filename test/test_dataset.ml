open Homunculus_ml
module Rng = Homunculus_util.Rng

let mk ?names ?(n_classes = 2) xs ys =
  Dataset.create ?feature_names:names ~x:xs ~y:ys ~n_classes ()

let sample =
  mk
    [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |]; [| 7.; 8. |] |]
    [| 0; 1; 0; 1 |]

let test_create_defaults () =
  Alcotest.(check (array string)) "default names" [| "f0"; "f1" |]
    sample.Dataset.feature_names;
  Alcotest.(check int) "n_samples" 4 (Dataset.n_samples sample);
  Alcotest.(check int) "n_features" 2 (Dataset.n_features sample)

let test_create_rejects_bad_label () =
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Dataset.create: label out of range") (fun () ->
      ignore (mk [| [| 1. |] |] [| 2 |]))

let test_create_rejects_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dataset.create: ragged features") (fun () ->
      ignore (mk [| [| 1. |]; [| 1.; 2. |] |] [| 0; 1 |]))

let test_create_rejects_length_mismatch () =
  Alcotest.check_raises "|x| <> |y|" (Invalid_argument "Dataset.create: |x| <> |y|")
    (fun () -> ignore (mk [| [| 1. |] |] [| 0; 1 |]))

let test_shuffle_preserves_pairs () =
  let rng = Rng.create 1 in
  let s = Dataset.shuffle rng sample in
  Alcotest.(check int) "same size" 4 (Dataset.n_samples s);
  (* Every (x, y) pair of the shuffle appears in the original. *)
  Array.iteri
    (fun i row ->
      let found = ref false in
      Array.iteri
        (fun j orig -> if orig = row && sample.Dataset.y.(j) = s.Dataset.y.(i) then found := true)
        sample.Dataset.x;
      Alcotest.(check bool) "pair preserved" true !found)
    s.Dataset.x

let test_split_sizes () =
  let rng = Rng.create 2 in
  let big =
    mk
      (Array.init 100 (fun i -> [| float_of_int i |]))
      (Array.init 100 (fun i -> i mod 2))
  in
  let train, test = Dataset.split rng ~train_frac:0.8 big in
  Alcotest.(check int) "train 80" 80 (Dataset.n_samples train);
  Alcotest.(check int) "test 20" 20 (Dataset.n_samples test)

let test_split_disjoint_union () =
  let rng = Rng.create 3 in
  let big =
    mk (Array.init 50 (fun i -> [| float_of_int i |])) (Array.make 50 0) ~n_classes:1
  in
  let train, test = Dataset.split rng ~train_frac:0.6 big in
  let all =
    Array.append
      (Array.map (fun r -> r.(0)) train.Dataset.x)
      (Array.map (fun r -> r.(0)) test.Dataset.x)
  in
  Array.sort compare all;
  Alcotest.(check (array (float 0.))) "partition"
    (Array.init 50 float_of_int) all

let test_split_rejects_bad_frac () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "frac 1"
    (Invalid_argument "Dataset.split: train_frac outside (0, 1)") (fun () ->
      ignore (Dataset.split rng ~train_frac:1. sample))

let test_subset () =
  let s = Dataset.subset sample [| 2; 0 |] in
  Alcotest.(check (array (float 0.))) "row order" [| 5.; 6. |] s.Dataset.x.(0);
  Alcotest.(check int) "label order" 0 s.Dataset.y.(1)

let test_class_counts () =
  Alcotest.(check (array int)) "counts" [| 2; 2 |] (Dataset.class_counts sample)

let test_select_features () =
  let named =
    Dataset.create
      ~feature_names:[| "a"; "b"; "c" |]
      ~x:[| [| 1.; 2.; 3. |] |]
      ~y:[| 0 |] ~n_classes:1 ()
  in
  let s = Dataset.select_features named [| 2; 0 |] in
  Alcotest.(check (array string)) "names" [| "c"; "a" |] s.Dataset.feature_names;
  Alcotest.(check (array (float 0.))) "values" [| 3.; 1. |] s.Dataset.x.(0)

let test_select_features_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dataset.select_features: column out of range") (fun () ->
      ignore (Dataset.select_features sample [| 5 |]))

let test_feature_index () =
  Alcotest.(check (option int)) "found" (Some 1) (Dataset.feature_index sample "f1");
  Alcotest.(check (option int)) "missing" None (Dataset.feature_index sample "zz")

let test_concat_samples () =
  let c = Dataset.concat_samples sample sample in
  Alcotest.(check int) "doubled" 8 (Dataset.n_samples c)

let test_concat_rejects_schema () =
  let other =
    Dataset.create ~feature_names:[| "x"; "y" |]
      ~x:[| [| 0.; 0. |] |] ~y:[| 0 |] ~n_classes:2 ()
  in
  Alcotest.check_raises "schema"
    (Invalid_argument "Dataset.concat_samples: feature schema mismatch")
    (fun () -> ignore (Dataset.concat_samples sample other))

let test_one_hot () =
  Alcotest.(check (array (float 0.))) "one hot" [| 0.; 1.; 0. |]
    (Dataset.one_hot ~n_classes:3 1)

(* Scaler *)

let test_scaler_standardizes () =
  let x = [| [| 1.; 10. |]; [| 3.; 30. |]; [| 5.; 50. |] |] in
  let s = Scaler.fit x in
  let t = Scaler.transform s x in
  let col j = Array.map (fun r -> r.(j)) t in
  Alcotest.(check (float 1e-9)) "mean 0 col0" 0. (Homunculus_util.Stats.mean (col 0));
  Alcotest.(check (float 1e-9)) "std 1 col1" 1. (Homunculus_util.Stats.std (col 1))

let test_scaler_constant_column () =
  let x = [| [| 5. |]; [| 5. |] |] in
  let s = Scaler.fit x in
  Alcotest.(check (array (float 1e-9))) "shift only" [| 0. |]
    (Scaler.transform_row s [| 5. |])

let test_scaler_roundtrip () =
  let x = [| [| 1.; 2. |]; [| 3.; 8. |]; [| -1.; 0. |] |] in
  let s = Scaler.fit x in
  let row = [| 2.5; 4. |] in
  Alcotest.(check (array (float 1e-9))) "inverse" row
    (Scaler.inverse_transform_row s (Scaler.transform_row s row))

let test_scaler_dataset () =
  let _, scaled = Scaler.fit_dataset sample in
  Alcotest.(check int) "same shape" 4 (Dataset.n_samples scaled);
  Alcotest.(check (array int)) "labels intact" sample.Dataset.y scaled.Dataset.y

(* The scaler as it was written with [Array.iteri]/[Array.mapi] closures,
   kept verbatim as the oracle for the plain loops that replaced it. *)
let closure_fit x =
  let n = Array.length x in
  let d = Array.length x.(0) in
  let mu = Array.make d 0. in
  Array.iter (fun row -> Array.iteri (fun j v -> mu.(j) <- mu.(j) +. v) row) x;
  for j = 0 to d - 1 do
    mu.(j) <- mu.(j) /. float_of_int n
  done;
  let var = Array.make d 0. in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          let delta = v -. mu.(j) in
          var.(j) <- var.(j) +. (delta *. delta))
        row)
    x;
  let sigma =
    Array.map
      (fun s ->
        let sd = sqrt (s /. float_of_int n) in
        if sd < 1e-12 then 1. else sd)
      var
  in
  (mu, sigma)

(* Random matrices with constant columns (their [sigma] is [1.]), signed
   zeros and mixed magnitudes, so any reordering of the sums shows in the
   low bits. *)
let test_scaler_matches_closure_form () =
  let bits = Array.map Int64.bits_of_float in
  for seed = 1 to 30 do
    let gen = Rng.create (900 + seed) in
    let n = 1 + Rng.int gen 80 and d = 1 + Rng.int gen 12 in
    let constant = Array.init d (fun _ -> Rng.int gen 3 = 0) in
    let level = Array.init d (fun _ -> Rng.uniform gen (-50.) 50.) in
    let x =
      Array.init n (fun _ ->
          Array.init d (fun j ->
              if constant.(j) then level.(j)
              else
                match Rng.int gen 5 with
                | 0 -> -0.
                | 1 -> Rng.uniform gen (-1e6) 1e6
                | _ -> Rng.gaussian gen ~mu:level.(j) ()))
    in
    let name what = Printf.sprintf "seed %d (n=%d d=%d) %s" seed n d what in
    let s = Scaler.fit x in
    let mu, sigma = closure_fit x in
    Alcotest.(check (array int64)) (name "mu") (bits mu) (bits (Scaler.mean s));
    Alcotest.(check (array int64)) (name "sigma") (bits sigma)
      (bits (Scaler.stddev s));
    Array.iteri
      (fun j c ->
        if c then Alcotest.(check (float 0.)) (name "constant sigma") 1. sigma.(j))
      constant;
    Array.iter
      (fun row ->
        let fwd = Array.mapi (fun j v -> (v -. mu.(j)) /. sigma.(j)) row in
        let back = Array.mapi (fun j v -> (v *. sigma.(j)) +. mu.(j)) row in
        Alcotest.(check (array int64)) (name "transform") (bits fwd)
          (bits (Scaler.transform_row s row));
        Alcotest.(check (array int64)) (name "inverse") (bits back)
          (bits (Scaler.inverse_transform_row s row)))
      x
  done

let suite =
  [
    Alcotest.test_case "create defaults" `Quick test_create_defaults;
    Alcotest.test_case "rejects bad label" `Quick test_create_rejects_bad_label;
    Alcotest.test_case "rejects ragged" `Quick test_create_rejects_ragged;
    Alcotest.test_case "rejects length mismatch" `Quick test_create_rejects_length_mismatch;
    Alcotest.test_case "shuffle preserves pairs" `Quick test_shuffle_preserves_pairs;
    Alcotest.test_case "split sizes" `Quick test_split_sizes;
    Alcotest.test_case "split partitions" `Quick test_split_disjoint_union;
    Alcotest.test_case "split rejects bad frac" `Quick test_split_rejects_bad_frac;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "class counts" `Quick test_class_counts;
    Alcotest.test_case "select features" `Quick test_select_features;
    Alcotest.test_case "select features range" `Quick test_select_features_range;
    Alcotest.test_case "feature index" `Quick test_feature_index;
    Alcotest.test_case "concat samples" `Quick test_concat_samples;
    Alcotest.test_case "concat rejects schema" `Quick test_concat_rejects_schema;
    Alcotest.test_case "one hot" `Quick test_one_hot;
    Alcotest.test_case "scaler standardizes" `Quick test_scaler_standardizes;
    Alcotest.test_case "scaler constant column" `Quick test_scaler_constant_column;
    Alcotest.test_case "scaler roundtrip" `Quick test_scaler_roundtrip;
    Alcotest.test_case "scaler dataset" `Quick test_scaler_dataset;
    Alcotest.test_case "scaler = closure form" `Quick test_scaler_matches_closure_form;
  ]
