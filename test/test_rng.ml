open Homunculus_util

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_copy_independent () =
  let a = Rng.create 9 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  let _ = Rng.int64 a in
  let va = Rng.int64 a and vb = Rng.int64 b in
  Alcotest.(check bool) "desynced after extra draw" true (va <> vb)

let test_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = Array.init 20 (fun _ -> Rng.int a 1000) in
  let ys = Array.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_uniform_bounds () =
  let rng = Rng.create 6 in
  for _ = 1 to 500 do
    let v = Rng.uniform rng (-3.) 7. in
    Alcotest.(check bool) "in [-3,7)" true (v >= -3. && v < 7.)
  done

let test_float_mean () =
  let rng = Rng.create 8 in
  let xs = Array.init 20000 (fun _ -> Rng.float rng 1.) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create 10 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng ~mu:2. ~sigma:3. ()) in
  Alcotest.(check bool) "mean near 2" true (Float.abs (Stats.mean xs -. 2.) < 0.1);
  Alcotest.(check bool) "std near 3" true (Float.abs (Stats.std xs -. 3.) < 0.1)

let test_bernoulli_rate () =
  let rng = Rng.create 12 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10000. in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.03)

let test_exponential_mean () =
  let rng = Rng.create 13 in
  let xs = Array.init 20000 (fun _ -> Rng.exponential rng 4.) in
  Alcotest.(check bool) "mean near 1/4" true
    (Float.abs (Stats.mean xs -. 0.25) < 0.02);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x >= 0.) xs)

let test_exponential_rejects () =
  let rng = Rng.create 13 in
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng 0.))

let test_pareto_support () =
  let rng = Rng.create 14 in
  for _ = 1 to 1000 do
    let v = Rng.pareto rng ~xm:2. ~alpha:1.5 in
    Alcotest.(check bool) "v >= xm" true (v >= 2.)
  done

let test_lognormal_positive () =
  let rng = Rng.create 15 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_choice () =
  let rng = Rng.create 16 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choice rng arr) arr)
  done

let test_choice_empty () =
  let rng = Rng.create 16 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice rng ([||] : int array)))

let test_choice_weighted () =
  let rng = Rng.create 17 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.choice_weighted rng [| ("x", 9.); ("y", 1.); ("z", 0.) |] in
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  let get k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  Alcotest.(check int) "zero weight never chosen" 0 (get "z");
  Alcotest.(check bool) "x dominates" true (get "x" > 7 * get "y")

let test_choice_weighted_zero_total () =
  let rng = Rng.create 17 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.choice_weighted: weights sum to zero") (fun () ->
      ignore (Rng.choice_weighted rng [| ("x", 0.) |]))

let test_shuffle_permutes () =
  let rng = Rng.create 18 in
  let arr = Array.init 50 (fun i -> i) in
  let orig = Array.copy arr in
  Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" orig sorted;
  Alcotest.(check bool) "order changed" true (arr <> orig)

let test_permutation () =
  let rng = Rng.create 19 in
  let p = Rng.permutation rng 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 30 Fun.id) sorted

let test_sample_indices_distinct () =
  let rng = Rng.create 20 in
  for _ = 1 to 50 do
    let s = Rng.sample_indices rng ~n:20 ~k:10 in
    Alcotest.(check int) "k values" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 0 to 8 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20)) s
  done

let test_sample_indices_full () =
  let rng = Rng.create 21 in
  let s = Rng.sample_indices rng ~n:5 ~k:5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "covers all" [| 0; 1; 2; 3; 4 |] sorted

let test_sample_indices_rejects () =
  let rng = Rng.create 21 in
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample_indices: k > n")
    (fun () -> ignore (Rng.sample_indices rng ~n:3 ~k:4))

let test_golden_streams () =
  List.iter
    (fun (g : Rng_golden.stream) ->
      let stream f =
        let rng = Rng.create g.seed in
        Array.init 64 (fun _ -> f rng)
      in
      let name what = Printf.sprintf "seed %d %s" g.seed what in
      Alcotest.(check (array int64)) (name "int64") g.int64s (stream Rng.int64);
      Alcotest.(check (array int))
        (name "int 1000") g.ints
        (stream (fun r -> Rng.int r 1000));
      Alcotest.(check (array int64))
        (name "float bits") g.float_bits
        (stream (fun r -> Int64.bits_of_float (Rng.float r 1.)));
      Alcotest.(check (array int64))
        (name "gaussian bits") g.gaussian_bits
        (stream (fun r -> Int64.bits_of_float (Rng.gaussian r ()))))
    Rng_golden.streams

let test_copy_carries_spare_gaussian () =
  (* One polar step yields two deviates and caches the second. A copy taken
     while it is cached hands out that spare next, then stays in lockstep
     with the original. *)
  let g = List.hd Rng_golden.streams in
  let a = Rng.create g.Rng_golden.seed in
  ignore (Rng.gaussian a ());
  let b = Rng.copy a in
  let draws r =
    List.init 6 (fun i ->
        if i mod 3 = 1 then Rng.int64 r
        else Int64.bits_of_float (Rng.gaussian r ()))
  in
  let from_copy = draws b in
  Alcotest.(check int64) "the copy's first deviate is the cached spare"
    g.Rng_golden.gaussian_bits.(1) (List.hd from_copy);
  Alcotest.(check (list int64)) "copy continues identically" (draws a)
    from_copy

(* [Gc.minor_words] returns an unboxed float, so the probes add nothing.
   The loops are written out so no closure or captured accumulator boxes
   anything of its own. *)

let test_int_allocates_nothing () =
  let rng = Rng.create 5 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sink := !sink lxor Rng.int rng 1000
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check bool)
    (Printf.sprintf "100k Rng.int draws allocate 0 words (got %.0f)" words)
    true (words = 0.)

let test_float_draws_box_only_result () =
  (* Under [-opaque] (dune's dev profile) a float returned across modules is
     boxed: 2 words, the result itself. Nothing else may allocate — not the
     state, not the cached spare Gaussian, not a polar-loop tuple. *)
  let rng = Rng.create 6 in
  let n = 100_000 in
  let acc = ref 0. in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.
  done;
  let float_words = (Gc.minor_words () -. before) /. float_of_int n in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Rng.gaussian rng ()
  done;
  let gaussian_words = (Gc.minor_words () -. before) /. float_of_int n in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "float <= 2 words per draw (got %.2f)" float_words)
    true (float_words <= 2.);
  Alcotest.(check bool)
    (Printf.sprintf "gaussian <= 2 words per draw (got %.2f)" gaussian_words)
    true (gaussian_words <= 2.)

let () = ignore check_float

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential rejects" `Quick test_exponential_rejects;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "choice member" `Quick test_choice;
    Alcotest.test_case "choice empty" `Quick test_choice_empty;
    Alcotest.test_case "choice weighted" `Quick test_choice_weighted;
    Alcotest.test_case "choice weighted zero" `Quick test_choice_weighted_zero_total;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "sample indices distinct" `Quick test_sample_indices_distinct;
    Alcotest.test_case "sample indices full" `Quick test_sample_indices_full;
    Alcotest.test_case "sample indices rejects" `Quick test_sample_indices_rejects;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "copy carries spare gaussian" `Quick
      test_copy_carries_spare_gaussian;
    Alcotest.test_case "int allocates nothing" `Quick test_int_allocates_nothing;
    Alcotest.test_case "float draws box only the result" `Quick
      test_float_draws_box_only_result;
  ]
