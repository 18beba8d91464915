(* KMeans, SVM, decision trees, random forests. *)
open Homunculus_ml
module Rng = Homunculus_util.Rng

let two_blobs rng n ~sep =
  Array.init (2 * n) (fun i ->
      let mu = if i < n then -.sep else sep in
      [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])

(* KMeans *)

let test_kmeans_recovers_blobs () =
  let rng = Rng.create 1 in
  let x = two_blobs rng 100 ~sep:6. in
  let km = Kmeans.fit rng ~k:2 x in
  let c = Kmeans.centroids km in
  let near v = Float.abs (Float.abs v -. 6.) < 1.0 in
  Alcotest.(check bool) "centroids near blob centers" true
    (near c.(0).(0) && near c.(1).(0))

let test_kmeans_separates_assignments () =
  let rng = Rng.create 2 in
  let x = two_blobs rng 80 ~sep:6. in
  let km = Kmeans.fit rng ~k:2 x in
  let pred = Kmeans.predict_all km x in
  let truth = Array.init 160 (fun i -> if i < 80 then 0 else 1) in
  Alcotest.(check bool) "v-measure ~ 1" true
    (Metrics.v_measure ~pred ~truth () > 0.9)

let test_kmeans_inertia_decreases_with_k () =
  let rng = Rng.create 3 in
  let x = two_blobs rng 60 ~sep:4. in
  let i2 = Kmeans.inertia (Kmeans.fit rng ~k:2 x) in
  let i6 = Kmeans.inertia (Kmeans.fit rng ~k:6 x) in
  Alcotest.(check bool) "more clusters, less inertia" true (i6 < i2)

let test_kmeans_rejects_bad_k () =
  let rng = Rng.create 4 in
  Alcotest.check_raises "k=0" (Invalid_argument "Kmeans.fit: k <= 0") (fun () ->
      ignore (Kmeans.fit rng ~k:0 [| [| 1. |] |]));
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Kmeans.fit: fewer samples than clusters") (fun () ->
      ignore (Kmeans.fit rng ~k:3 [| [| 1. |]; [| 2. |] |]))

let test_kmeans_predict_nearest () =
  let rng = Rng.create 5 in
  let x = [| [| 0. |]; [| 0.1 |]; [| 10. |]; [| 10.1 |] |] in
  let km = Kmeans.fit rng ~k:2 x in
  Alcotest.(check bool) "0 and 10 in different clusters" true
    (Kmeans.predict km [| 0. |] <> Kmeans.predict km [| 10. |]);
  Alcotest.(check int) "0 and 0.2 together"
    (Kmeans.predict km [| 0. |])
    (Kmeans.predict km [| 0.2 |])

let test_kmeans_merge_clusters () =
  let rng = Rng.create 6 in
  let x =
    Array.concat
      [
        two_blobs rng 30 ~sep:8.;
        Array.init 30 (fun _ -> [| Rng.gaussian rng ~mu:20. (); 0. |]);
      ]
  in
  let km = Kmeans.fit rng ~k:4 x in
  let merged = Kmeans.merge_clusters km ~into:2 in
  Alcotest.(check int) "two clusters" 2 (Kmeans.k merged);
  Alcotest.check_raises "bad target"
    (Invalid_argument "Kmeans.merge_clusters: bad target") (fun () ->
      ignore (Kmeans.merge_clusters km ~into:0))

let test_kmeans_merge_preserves_dim () =
  let rng = Rng.create 7 in
  let x = two_blobs rng 40 ~sep:5. in
  let km = Kmeans.fit rng ~k:4 x in
  let merged = Kmeans.merge_clusters km ~into:3 in
  Array.iter
    (fun c -> Alcotest.(check int) "dim 2" 2 (Array.length c))
    (Kmeans.centroids merged)

(* SVM *)

let test_svm_binary_separable () =
  let rng = Rng.create 8 in
  let x = two_blobs rng 100 ~sep:4. in
  let y = Array.init 200 (fun i -> if i < 100 then 0 else 1) in
  let m = Svm.fit_binary rng ~x ~y () in
  let pred = Array.map (Svm.predict_binary m) x in
  Alcotest.(check bool) "f1 > 0.95" true (Metrics.f1 ~pred ~truth:y () > 0.95)

let test_svm_margin_sign () =
  let rng = Rng.create 9 in
  let x = two_blobs rng 100 ~sep:4. in
  let y = Array.init 200 (fun i -> if i < 100 then 0 else 1) in
  let m = Svm.fit_binary rng ~x ~y () in
  Alcotest.(check bool) "positive side" true (Svm.decision m [| 8.; 8. |] > 0.);
  Alcotest.(check bool) "negative side" true (Svm.decision m [| -8.; -8. |] < 0.)

let test_svm_multiclass () =
  let rng = Rng.create 10 in
  let n = 60 in
  let x =
    Array.init (3 * n) (fun i ->
        let c = i / n in
        let mu = 6. *. float_of_int c in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init (3 * n) (fun i -> i / n) in
  let d = Dataset.create ~x ~y ~n_classes:3 () in
  let m = Svm.fit rng d in
  let pred = Svm.predict_all m x in
  Alcotest.(check bool) "accuracy > 0.9" true (Metrics.accuracy ~pred ~truth:y > 0.9);
  Alcotest.(check int) "3 classes" 3 (Svm.n_classes m);
  Alcotest.(check int) "2 features" 2 (Svm.n_features m);
  Alcotest.(check int) "weights shape" 3 (Array.length (Svm.class_weights m));
  Alcotest.(check int) "biases shape" 3 (Array.length (Svm.class_biases m))

let test_svm_rejects_empty () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "empty" (Invalid_argument "Svm.fit_binary: empty input")
    (fun () -> ignore (Svm.fit_binary rng ~x:[||] ~y:[||] ()))

(* The Pegasos kernel as it was written before the step loop was made
   allocation-free, kept verbatim as the oracle: a separate shrink pass, then
   a separate update pass when the margin is violated. *)
let literal_pegasos rng ?(lambda = 1e-4) ?(epochs = 20) ~x ~y () =
  let n = Array.length x in
  if n = 0 then invalid_arg "Svm.fit_binary: empty input";
  if Array.length y <> n then invalid_arg "Svm.fit_binary: |x| <> |y|";
  let d = Array.length x.(0) in
  let w = Array.make d 0. in
  let b = ref 0. in
  let t = ref 0 in
  for _epoch = 1 to epochs do
    for _step = 1 to n do
      incr t;
      let i = Rng.int rng n in
      let eta = 1. /. (lambda *. float_of_int !t) in
      let label = if y.(i) = 1 then 1. else -1. in
      let margin =
        let acc = ref !b in
        Array.iteri (fun j xj -> acc := !acc +. (w.(j) *. xj)) x.(i);
        label *. !acc
      in
      (* Regularization shrink, then hinge sub-gradient step when violated. *)
      let shrink = 1. -. (eta *. lambda) in
      for j = 0 to d - 1 do
        w.(j) <- w.(j) *. shrink
      done;
      if margin < 1. then begin
        for j = 0 to d - 1 do
          w.(j) <- w.(j) +. (eta *. label *. x.(i).(j))
        done;
        b := !b +. (eta *. label)
      end
    done
  done;
  (w, !b)

let literal_decision (w, b) x =
  let acc = ref b in
  Array.iteri (fun j xj -> acc := !acc +. (w.(j) *. xj)) x;
  !acc

(* Bits, except that every NaN is one value: which NaN operand an add or a
   multiply propagates is the compiler's operand order, not the kernel's
   arithmetic, and IEEE 754 leaves the payload unspecified. *)
let check_fit_matches_literal name ~seed ~lambda ~epochs ~x ~y =
  let bits =
    Array.map (fun v ->
        if Float.is_nan v then Int64.bits_of_float Float.nan
        else Int64.bits_of_float v)
  in
  let m = Svm.fit_binary (Rng.create seed) ~lambda ~epochs ~x ~y () in
  let want = literal_pegasos (Rng.create seed) ~lambda ~epochs ~x ~y () in
  Alcotest.(check (array int64)) (name ^ " weights") (bits (fst want))
    (bits (Svm.weights m));
  Alcotest.(check (array int64)) (name ^ " bias") (bits [| snd want |])
    (bits [| Svm.bias m |]);
  Alcotest.(check (array int64)) (name ^ " decisions")
    (bits (Array.map (literal_decision want) x))
    (bits (Array.map (Svm.decision m) x))

(* Random problems with signed zeros and features of magnitude 1e4 among
   ordinary ones; labels include values other than 0/1 (they train as -1).
   A random margin almost never sits within an ulp of 1, so a crafted
   problem pins the summation order too: after the first step on
   [[1; 1; 1]] (lambda = 1, so the shrink is 0 and w = [1; 1; 1], b = 1),
   the second row's margin is 1 summed bias first in ascending order but 0
   in any other order — which flips the hinge branch. *)
let test_svm_fit_binary_matches_literal () =
  for seed = 1 to 40 do
    let gen = Rng.create (500 + seed) in
    let n = 1 + Rng.int gen 60 and d = Rng.int gen 33 in
    let feature () =
      match Rng.int gen 6 with
      | 0 -> 0.
      | 1 -> -0.
      | 2 -> Rng.uniform gen (-1e4) 1e4
      | _ -> Rng.gaussian gen ()
    in
    let x = Array.init n (fun _ -> Array.init d (fun _ -> feature ())) in
    let y = Array.init n (fun _ -> Rng.int gen 3) in
    let lambda = 10. ** Rng.uniform gen (-6.) 0. in
    let epochs = Rng.int gen 8 in
    check_fit_matches_literal
      (Printf.sprintf "seed %d (n=%d d=%d)" seed n d)
      ~seed ~lambda ~epochs ~x ~y
  done;
  let big = 0x1p60 in
  let x = [| [| 1.; 1.; 1. |]; [| big; -.big; 1. |] |] in
  for seed = 1 to 8 do
    check_fit_matches_literal
      (Printf.sprintf "cancellation seed %d" seed)
      ~seed ~lambda:1. ~epochs:2 ~x ~y:[| 1; 1 |]
  done;
  (* Long deferred-shrink chains: separable data at the production width
     and a small lambda, so after the first epochs most steps leave the
     margin intact and each carries its shrink into the next step's margin
     pass. Some draws run to 40 epochs (20,000 steps). *)
  for seed = 1 to 6 do
    let gen = Rng.create (700 + seed) in
    let n = 500 and d = 30 in
    let y = Array.init n (fun _ -> Rng.int gen 2) in
    let x =
      Array.init n (fun i ->
          let mu = if y.(i) = 1 then 2. else -2. in
          Array.init d (fun _ -> Rng.gaussian gen ~mu ()))
    in
    let lambda = 10. ** Rng.uniform gen (-6.) (-2.) in
    let epochs = if seed <= 2 then 40 else 1 + Rng.int gen 40 in
    check_fit_matches_literal
      (Printf.sprintf "chain seed %d (lambda=%g epochs=%d)" seed lambda epochs)
      ~seed ~lambda ~epochs ~x ~y
  done;
  (* Non-finite features: an infinity or a NaN reaches the weights, and the
     deferred [*. 1.] must leave those weights exactly as the two-pass form
     does. *)
  for seed = 1 to 8 do
    let gen = Rng.create (800 + seed) in
    let n = 1 + Rng.int gen 40 and d = 1 + Rng.int gen 8 in
    let feature () =
      match Rng.int gen 12 with
      | 0 -> Float.infinity
      | 1 -> Float.neg_infinity
      | 2 -> Float.nan
      | _ -> Rng.gaussian gen ()
    in
    let x = Array.init n (fun _ -> Array.init d (fun _ -> feature ())) in
    let y = Array.init n (fun _ -> Rng.int gen 2) in
    check_fit_matches_literal
      (Printf.sprintf "non-finite seed %d (n=%d d=%d)" seed n d)
      ~seed ~lambda:1e-3 ~epochs:(1 + Rng.int gen 5) ~x ~y
  done;
  let x = [| [| 1.; -2. |]; [| 0.5; 3. |] |] in
  check_fit_matches_literal "epochs = 0" ~seed:1 ~lambda:1e-4 ~epochs:0 ~x
    ~y:[| 0; 1 |]

(* [Svm.fit] steps its one-vs-rest machines two at a time; each machine
   must come out with the bits of its own [fit_binary] call, made in class
   order on one generator, and the generator must be left where those calls
   leave it. NaNs count as one value, as above. *)
let test_svm_fit_matches_sequential () =
  let bits =
    Array.map (fun v ->
        if Float.is_nan v then Int64.bits_of_float Float.nan
        else Int64.bits_of_float v)
  in
  let case = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun (n, epochs) ->
          List.iter
            (fun lambda ->
              incr case;
              let gen = Rng.create (900 + !case) in
              let d = 1 + Rng.int gen 12 in
              let x =
                Array.init n (fun _ -> Array.init d (fun _ -> Rng.gaussian gen ()))
              in
              let y = Array.init n (fun _ -> Rng.int gen k) in
              let data = Dataset.create ~x ~y ~n_classes:k () in
              let name =
                Printf.sprintf "K=%d n=%d epochs=%d lambda=%g" k n epochs lambda
              in
              let rng = Rng.create !case in
              let m = Svm.fit rng ~lambda ~epochs data in
              let ref_rng = Rng.create !case in
              let want =
                Array.init k (fun c ->
                    Svm.fit_binary ref_rng ~lambda ~epochs ~x
                      ~y:(Array.map (fun l -> if l = c then 1 else 0) y)
                      ())
              in
              Array.iteri
                (fun c b ->
                  Alcotest.(check (array int64))
                    (Printf.sprintf "%s class %d weights" name c)
                    (bits (Svm.weights b))
                    (bits (Svm.class_weights m).(c));
                  Alcotest.(check (array int64))
                    (Printf.sprintf "%s class %d bias" name c)
                    (bits [| Svm.bias b |])
                    (bits [| (Svm.class_biases m).(c) |]))
                want;
              Alcotest.(check int) (name ^ " generator state")
                (Rng.int ref_rng 1_000_000) (Rng.int rng 1_000_000))
            [ 1e-6; 1e-4; 1e-2 ])
        [ (1, 0); (1, 3); (40, 0); (40, 1); (60, 7) ])
    [ 2; 3; 4 ]

(* The step loop allocates nothing: [Rng.int] keeps its state unboxed, so
   what remains is the fit's constant setup spread over 2,000 steps. The
   two-pass kernel above allocates about 142 words per step at this width
   (a boxed float per feature in the margin). *)
let test_svm_fit_allocation () =
  let gen = Rng.create 12 in
  let n = 400 and d = 30 and epochs = 5 in
  let x = Array.init n (fun _ -> Array.init d (fun _ -> Rng.gaussian gen ())) in
  let y = Array.init n (fun i -> i mod 2) in
  let rng = Rng.create 13 in
  let before = Gc.minor_words () in
  ignore (Svm.fit_binary rng ~epochs ~x ~y ());
  let per_step = (Gc.minor_words () -. before) /. float_of_int (n * epochs) in
  if per_step > 1. then
    Alcotest.failf "%.2f minor words per step at d = %d (limit 1)" per_step d

let test_svm_rejects_ragged () =
  let rng = Rng.create 14 in
  let x = [| [| 1.; 2. |]; [| 3. |]; [| 4.; 5. |] |] in
  Alcotest.check_raises "ragged" (Invalid_argument "Svm.fit_binary: ragged rows")
    (fun () -> ignore (Svm.fit_binary rng ~x ~y:[| 0; 1; 0 |] ()))

(* [predict] takes the argmax inline with [Stats.argmax]'s rule: ties go to
   the first class, which an untrained (all-zero) model makes of every
   sample. *)
let test_svm_predict_is_argmax () =
  let gen = Rng.create 15 in
  let x = Array.init 90 (fun _ -> Array.init 4 (fun _ -> Rng.gaussian gen ())) in
  let y = Array.init 90 (fun i -> i mod 3) in
  let d = Dataset.create ~x ~y ~n_classes:3 () in
  let argmax_of m sample =
    Homunculus_util.Stats.argmax
      (Array.map2
         (fun w b ->
           let acc = ref b in
           Array.iteri (fun j wj -> acc := !acc +. (wj *. sample.(j))) w;
           !acc)
         (Svm.class_weights m) (Svm.class_biases m))
  in
  List.iter
    (fun epochs ->
      let m = Svm.fit (Rng.create 16) ~epochs d in
      Alcotest.(check (array int))
        (Printf.sprintf "epochs %d" epochs)
        (Array.map (argmax_of m) x) (Svm.predict_all m x))
    [ 0; 3 ];
  let untrained = Svm.fit (Rng.create 17) ~epochs:0 d in
  Alcotest.(check (array int)) "ties -> class 0" (Array.make 90 0)
    (Svm.predict_all untrained x)

(* Decision trees *)

let xor_data rng n =
  let x =
    Array.init n (fun _ ->
        [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |])
  in
  let y = Array.map (fun r -> if r.(0) *. r.(1) > 0. then 1 else 0) x in
  (x, y)

let test_tree_learns_xor () =
  (* XOR defeats linear models; a depth-2+ tree nails it. *)
  let rng = Rng.create 12 in
  let x, y = xor_data rng 400 in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let pred = Decision_tree.Classifier.predict_all t x in
  Alcotest.(check bool) "accuracy > 0.95" true
    (Metrics.accuracy ~pred ~truth:y > 0.95)

let test_tree_max_depth_respected () =
  let rng = Rng.create 13 in
  let x, y = xor_data rng 200 in
  let params = { Decision_tree.default_params with Decision_tree.max_depth = 3 } in
  let t = Decision_tree.Classifier.fit ~params ~x ~y ~n_classes:2 () in
  Alcotest.(check bool) "depth <= 3" true
    (Decision_tree.depth (Decision_tree.Classifier.root t) <= 3)

let test_tree_pure_leaf_shortcut () =
  let x = [| [| 0. |]; [| 1. |]; [| 2. |] |] in
  let y = [| 1; 1; 1 |] in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  Alcotest.(check int) "single leaf" 1
    (Decision_tree.n_leaves (Decision_tree.Classifier.root t))

let test_tree_proba_sums_to_one () =
  let rng = Rng.create 14 in
  let x, y = xor_data rng 100 in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let p = Decision_tree.Classifier.predict_proba t [| 0.3; 0.3 |] in
  Alcotest.(check (float 1e-9)) "distribution" 1. (p.(0) +. p.(1))

let test_tree_node_counts () =
  let root =
    Decision_tree.Split
      {
        feature = 0;
        threshold = 0.;
        left = Decision_tree.Leaf { distribution = [| 1.; 0. |] };
        right =
          Decision_tree.Split
            {
              feature = 1;
              threshold = 1.;
              left = Decision_tree.Leaf { distribution = [| 0.; 1. |] };
              right = Decision_tree.Leaf { distribution = [| 0.; 1. |] };
            };
      }
  in
  Alcotest.(check int) "depth" 2 (Decision_tree.depth root);
  Alcotest.(check int) "leaves" 3 (Decision_tree.n_leaves root);
  Alcotest.(check int) "nodes" 5 (Decision_tree.n_nodes root)

let test_tree_regressor_fits_step () =
  let x = Array.init 100 (fun i -> [| float_of_int i |]) in
  let y = Array.init 100 (fun i -> if i < 50 then 1. else 5. ) in
  let t = Decision_tree.Regressor.fit ~x ~y () in
  Alcotest.(check (float 0.2)) "left" 1. (Decision_tree.Regressor.predict t [| 10. |]);
  Alcotest.(check (float 0.2)) "right" 5. (Decision_tree.Regressor.predict t [| 90. |])

let test_tree_min_samples_leaf () =
  let rng = Rng.create 15 in
  let x, y = xor_data rng 64 in
  let params =
    { Decision_tree.default_params with Decision_tree.min_samples_leaf = 16 }
  in
  let t = Decision_tree.Classifier.fit ~params ~x ~y ~n_classes:2 () in
  (* 64 samples with min leaf 16 cannot have more than 4 leaves. *)
  Alcotest.(check bool) "few leaves" true
    (Decision_tree.n_leaves (Decision_tree.Classifier.root t) <= 4)

(* Random forest *)

let test_forest_classifier_beats_noise () =
  let rng = Rng.create 16 in
  let x, y = xor_data rng 300 in
  let f = Random_forest.Classifier.fit rng ~n_trees:15 ~x ~y ~n_classes:2 () in
  let pred = Random_forest.Classifier.predict_all f x in
  Alcotest.(check bool) "accuracy > 0.9" true (Metrics.accuracy ~pred ~truth:y > 0.9);
  Alcotest.(check int) "n_trees" 15 (Random_forest.Classifier.n_trees f)

let test_forest_proba_distribution () =
  let rng = Rng.create 17 in
  let x, y = xor_data rng 100 in
  let f = Random_forest.Classifier.fit rng ~n_trees:7 ~x ~y ~n_classes:2 () in
  let p = Random_forest.Classifier.predict_proba f [| 0.5; 0.5 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (p.(0) +. p.(1))

let test_forest_regressor_interpolates () =
  let rng = Rng.create 18 in
  let x = Array.init 200 (fun i -> [| float_of_int i /. 20. |]) in
  let y = Array.map (fun r -> sin r.(0)) x in
  let f = Random_forest.Regressor.fit rng ~n_trees:20 ~x ~y () in
  let err = Float.abs (Random_forest.Regressor.predict f [| 3. |] -. sin 3.) in
  Alcotest.(check bool) "close to sin" true (err < 0.2)

let test_forest_regressor_uncertainty () =
  let rng = Rng.create 19 in
  let x = Array.init 100 (fun i -> [| float_of_int i |]) in
  let y = Array.map (fun r -> r.(0)) x in
  let f = Random_forest.Regressor.fit rng ~n_trees:10 ~x ~y () in
  let _, std_in = Random_forest.Regressor.predict_with_std f [| 50. |] in
  let _, std_out = Random_forest.Regressor.predict_with_std f [| 500. |] in
  Alcotest.(check bool) "std non-negative" true (std_in >= 0. && std_out >= 0.)

let test_forest_deterministic_given_seed () =
  let x = Array.init 50 (fun i -> [| float_of_int i |]) in
  let y = Array.init 50 (fun i -> i mod 2) in
  let f1 = Random_forest.Classifier.fit (Rng.create 7) ~n_trees:5 ~x ~y ~n_classes:2 () in
  let f2 = Random_forest.Classifier.fit (Rng.create 7) ~n_trees:5 ~x ~y ~n_classes:2 () in
  let p1 = Array.map (Random_forest.Classifier.predict f1) x in
  let p2 = Array.map (Random_forest.Classifier.predict f2) x in
  Alcotest.(check (array int)) "same predictions" p1 p2

let suite =
  [
    Alcotest.test_case "kmeans recovers blobs" `Quick test_kmeans_recovers_blobs;
    Alcotest.test_case "kmeans separates" `Quick test_kmeans_separates_assignments;
    Alcotest.test_case "kmeans inertia vs k" `Quick test_kmeans_inertia_decreases_with_k;
    Alcotest.test_case "kmeans rejects bad k" `Quick test_kmeans_rejects_bad_k;
    Alcotest.test_case "kmeans predict nearest" `Quick test_kmeans_predict_nearest;
    Alcotest.test_case "kmeans merge clusters" `Quick test_kmeans_merge_clusters;
    Alcotest.test_case "kmeans merge dims" `Quick test_kmeans_merge_preserves_dim;
    Alcotest.test_case "svm binary separable" `Quick test_svm_binary_separable;
    Alcotest.test_case "svm margin sign" `Quick test_svm_margin_sign;
    Alcotest.test_case "svm multiclass" `Quick test_svm_multiclass;
    Alcotest.test_case "svm rejects empty" `Quick test_svm_rejects_empty;
    Alcotest.test_case "svm fit_binary = literal Pegasos loop" `Quick
      test_svm_fit_binary_matches_literal;
    Alcotest.test_case "svm fit = sequential fit_binary" `Quick
      test_svm_fit_matches_sequential;
    Alcotest.test_case "svm fit allocation" `Quick test_svm_fit_allocation;
    Alcotest.test_case "svm fit_binary rejects ragged rows" `Quick
      test_svm_rejects_ragged;
    Alcotest.test_case "svm predict = argmax of margins" `Quick
      test_svm_predict_is_argmax;
    Alcotest.test_case "tree learns xor" `Quick test_tree_learns_xor;
    Alcotest.test_case "tree max depth" `Quick test_tree_max_depth_respected;
    Alcotest.test_case "tree pure leaf" `Quick test_tree_pure_leaf_shortcut;
    Alcotest.test_case "tree proba sums" `Quick test_tree_proba_sums_to_one;
    Alcotest.test_case "tree node counts" `Quick test_tree_node_counts;
    Alcotest.test_case "tree regressor step" `Quick test_tree_regressor_fits_step;
    Alcotest.test_case "tree min samples leaf" `Quick test_tree_min_samples_leaf;
    Alcotest.test_case "forest classifier" `Quick test_forest_classifier_beats_noise;
    Alcotest.test_case "forest proba" `Quick test_forest_proba_distribution;
    Alcotest.test_case "forest regressor" `Quick test_forest_regressor_interpolates;
    Alcotest.test_case "forest uncertainty" `Quick test_forest_regressor_uncertainty;
    Alcotest.test_case "forest deterministic" `Quick test_forest_deterministic_given_seed;
  ]
