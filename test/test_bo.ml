(* Parameters, design spaces, history, acquisition, surrogate, optimizer. *)
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng

let rng () = Rng.create 99

(* Param *)

let test_param_constructors_validate () =
  Alcotest.check_raises "real lo>=hi" (Invalid_argument "Param.real: lo >= hi")
    (fun () -> ignore (Bo.Param.real "x" ~lo:1. ~hi:1.));
  Alcotest.check_raises "log needs positive"
    (Invalid_argument "Param.real: log scale needs lo > 0") (fun () ->
      ignore (Bo.Param.real ~log_scale:true "x" ~lo:0. ~hi:1.));
  Alcotest.check_raises "int lo>hi" (Invalid_argument "Param.int: lo > hi")
    (fun () -> ignore (Bo.Param.int "x" ~lo:2 ~hi:1));
  Alcotest.check_raises "empty ordinal"
    (Invalid_argument "Param.ordinal: empty domain") (fun () ->
      ignore (Bo.Param.ordinal "x" [||]));
  Alcotest.check_raises "unsorted ordinal"
    (Invalid_argument "Param.ordinal: values must be increasing") (fun () ->
      ignore (Bo.Param.ordinal "x" [| 2.; 1. |]))

let test_param_validate () =
  let p = Bo.Param.int "n" ~lo:1 ~hi:5 in
  Alcotest.(check bool) "in range" true (Bo.Param.validate p (Bo.Param.Int_value 3));
  Alcotest.(check bool) "out of range" false
    (Bo.Param.validate p (Bo.Param.Int_value 9));
  Alcotest.(check bool) "wrong shape" false
    (Bo.Param.validate p (Bo.Param.Real_value 3.))

let test_param_sample_in_domain () =
  let r = rng () in
  let params =
    [
      Bo.Param.real "a" ~lo:(-2.) ~hi:3.;
      Bo.Param.real ~log_scale:true "b" ~lo:1e-4 ~hi:1.;
      Bo.Param.int "c" ~lo:0 ~hi:10;
      Bo.Param.ordinal "d" [| 1.; 2.; 4. |];
      Bo.Param.categorical "e" [| "x"; "y" |];
    ]
  in
  List.iter
    (fun p ->
      for _ = 1 to 200 do
        Alcotest.(check bool) "sample valid" true
          (Bo.Param.validate p (Bo.Param.sample r p))
      done)
    params

let test_param_neighbor_valid_and_local () =
  let r = rng () in
  let p = Bo.Param.int "n" ~lo:0 ~hi:100 in
  for _ = 1 to 100 do
    let v = Bo.Param.sample r p in
    let n = Bo.Param.neighbor r p v in
    Alcotest.(check bool) "valid" true (Bo.Param.validate p n);
    match (v, n) with
    | Bo.Param.Int_value a, Bo.Param.Int_value b ->
        Alcotest.(check bool) "unit step" true (abs (a - b) <= 1)
    | _ -> Alcotest.fail "unexpected shapes"
  done

let test_param_log_neighbor_chain_stays_valid () =
  (* Regression: the exp/log roundtrip used to overshoot the domain by one
     ulp, poisoning later neighbor calls on the incumbent. *)
  let r = rng () in
  let p = Bo.Param.real ~log_scale:true "lr" ~lo:1e-4 ~hi:1e-1 in
  let v = ref (Bo.Param.sample r p) in
  for _ = 1 to 2000 do
    v := Bo.Param.neighbor r p !v;
    Alcotest.(check bool) "chain stays valid" true (Bo.Param.validate p !v)
  done

let test_param_neighbor_rejects_invalid () =
  let r = rng () in
  let p = Bo.Param.int "n" ~lo:0 ~hi:5 in
  Alcotest.check_raises "invalid input"
    (Invalid_argument "Param.neighbor: invalid value") (fun () ->
      ignore (Bo.Param.neighbor r p (Bo.Param.Int_value 99)))

let test_param_encode_normalizes () =
  let p = Bo.Param.int "n" ~lo:10 ~hi:20 in
  Alcotest.(check (float 1e-9)) "lo" 0. (Bo.Param.encode p (Bo.Param.Int_value 10));
  Alcotest.(check (float 1e-9)) "hi" 1. (Bo.Param.encode p (Bo.Param.Int_value 20));
  Alcotest.(check (float 1e-9)) "mid" 0.5 (Bo.Param.encode p (Bo.Param.Int_value 15));
  let lr = Bo.Param.real ~log_scale:true "lr" ~lo:1e-4 ~hi:1e-0 in
  Alcotest.(check (float 1e-9)) "log mid" 0.5
    (Bo.Param.encode lr (Bo.Param.Real_value 1e-2))

let test_param_cardinality () =
  Alcotest.(check (option int)) "int" (Some 11)
    (Bo.Param.cardinality (Bo.Param.int "n" ~lo:0 ~hi:10));
  Alcotest.(check (option int)) "real" None
    (Bo.Param.cardinality (Bo.Param.real "x" ~lo:0. ~hi:1.));
  Alcotest.(check (option int)) "cat" (Some 2)
    (Bo.Param.cardinality (Bo.Param.categorical "c" [| "a"; "b" |]))

let test_param_value_to_string () =
  let p = Bo.Param.categorical "c" [| "relu"; "tanh" |] in
  Alcotest.(check string) "categorical" "tanh"
    (Bo.Param.value_to_string p (Bo.Param.Index_value 1))

(* Config *)

let test_config_getters () =
  let c =
    Bo.Config.make
      [ ("a", Bo.Param.Int_value 3); ("b", Bo.Param.Real_value 0.5);
        ("c", Bo.Param.Index_value 1) ]
  in
  Alcotest.(check int) "int" 3 (Bo.Config.get_int c "a");
  Alcotest.(check (float 0.)) "float" 0.5 (Bo.Config.get_float c "b");
  Alcotest.(check int) "index" 1 (Bo.Config.get_index c "c")

let test_config_rejects_duplicates () =
  Alcotest.check_raises "dup" (Invalid_argument "Config.make: duplicate parameter names")
    (fun () ->
      ignore
        (Bo.Config.make
           [ ("a", Bo.Param.Int_value 1); ("a", Bo.Param.Int_value 2) ]))

let test_config_equal_order_insensitive () =
  let a =
    Bo.Config.make [ ("x", Bo.Param.Int_value 1); ("y", Bo.Param.Int_value 2) ]
  in
  let b =
    Bo.Config.make [ ("y", Bo.Param.Int_value 2); ("x", Bo.Param.Int_value 1) ]
  in
  Alcotest.(check bool) "equal" true (Bo.Config.equal a b)

let test_config_wrong_shape_getter () =
  let c = Bo.Config.make [ ("a", Bo.Param.Int_value 3) ] in
  Alcotest.check_raises "wrong shape"
    (Invalid_argument "Config.get_float: a is not a real") (fun () ->
      ignore (Bo.Config.get_float c "a"))

(* Design space *)

let space () =
  Bo.Design_space.create
    [
      Bo.Param.int "n" ~lo:1 ~hi:8;
      Bo.Param.real "lr" ~lo:0.01 ~hi:0.1;
      Bo.Param.categorical "act" [| "relu"; "tanh" |];
    ]

let test_space_sample_valid () =
  let s = space () in
  let r = rng () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "valid" true
      (Bo.Design_space.validate s (Bo.Design_space.sample r s))
  done

let test_space_rejects_duplicates () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Design_space.create: duplicate parameter names")
    (fun () ->
      ignore
        (Bo.Design_space.create
           [ Bo.Param.int "x" ~lo:0 ~hi:1; Bo.Param.int "x" ~lo:0 ~hi:2 ]))

let test_space_encode_dim () =
  let s = space () in
  let r = rng () in
  let e = Bo.Design_space.encode s (Bo.Design_space.sample r s) in
  Alcotest.(check int) "3 dims" 3 (Array.length e)

let test_space_neighbor_valid () =
  let s = space () in
  let r = rng () in
  for _ = 1 to 100 do
    let c = Bo.Design_space.sample r s in
    Alcotest.(check bool) "valid" true
      (Bo.Design_space.validate s (Bo.Design_space.neighbor r s c))
  done

let test_space_validate_catches_missing () =
  let s = space () in
  let c = Bo.Config.make [ ("n", Bo.Param.Int_value 1) ] in
  Alcotest.(check bool) "missing params" false (Bo.Design_space.validate s c)

let test_space_log_cardinality () =
  let s =
    Bo.Design_space.create
      [ Bo.Param.int "a" ~lo:1 ~hi:10; Bo.Param.categorical "b" [| "x"; "y" |] ]
  in
  Alcotest.(check (float 1e-9)) "log 20" (log 20.)
    (Bo.Design_space.log_cardinality s)

(* History *)

let cfg n = Bo.Config.make [ ("n", Bo.Param.Int_value n) ]

let test_history_best_ignores_infeasible () =
  let h = Bo.History.create () in
  Bo.History.add h ~config:(cfg 1) ~objective:0.9 ~feasible:false ();
  Bo.History.add h ~config:(cfg 2) ~objective:0.5 ~feasible:true ();
  Bo.History.add h ~config:(cfg 3) ~objective:0.7 ~feasible:true ();
  match Bo.History.best h with
  | Some e ->
      Alcotest.(check (float 0.)) "best feasible" 0.7 e.Bo.History.objective
  | None -> Alcotest.fail "expected a best entry"

(* Regression: a feasible entry whose objective is NaN must never become the
   incumbent. The old [>=] guard let it through ([b >= nan] is false), which
   poisoned the EI threshold for the rest of the search. *)
let test_history_best_nan_never_wins () =
  let h = Bo.History.create () in
  Bo.History.add h ~config:(cfg 1) ~objective:Float.nan ~feasible:true ();
  Alcotest.(check bool) "lone NaN is no incumbent" true
    (Bo.History.best h = None);
  Bo.History.add h ~config:(cfg 2) ~objective:0.5 ~feasible:true ();
  Bo.History.add h ~config:(cfg 3) ~objective:Float.nan ~feasible:true ();
  (match Bo.History.best h with
  | Some e -> Alcotest.(check (float 0.)) "real entry wins" 0.5 e.Bo.History.objective
  | None -> Alcotest.fail "expected a best entry")

let test_history_best_entry_total () =
  let h = Bo.History.create () in
  Alcotest.(check bool) "empty" true (Bo.History.best_entry h = None);
  (* All infeasible: the least-bad entry is still defined. *)
  Bo.History.add h ~config:(cfg 1) ~objective:0.2 ~feasible:false ();
  Bo.History.add h ~config:(cfg 2) ~objective:0.6 ~feasible:false ();
  (match Bo.History.best_entry h with
  | Some e -> Alcotest.(check (float 0.)) "best infeasible" 0.6 e.Bo.History.objective
  | None -> Alcotest.fail "expected an entry");
  (* Any feasible entry beats every infeasible one, and NaN ranks below
     every real. *)
  Bo.History.add h ~config:(cfg 3) ~objective:Float.nan ~feasible:true ();
  Bo.History.add h ~config:(cfg 4) ~objective:0.1 ~feasible:true ();
  (match Bo.History.best_entry h with
  | Some e ->
      Alcotest.(check bool) "feasible wins" true e.Bo.History.feasible;
      Alcotest.(check (float 0.)) "real beats NaN" 0.1 e.Bo.History.objective
  | None -> Alcotest.fail "expected an entry")

let test_history_best_so_far_monotone () =
  let h = Bo.History.create () in
  List.iter
    (fun (o, f) -> Bo.History.add h ~config:(cfg (int_of_float (o *. 100.))) ~objective:o ~feasible:f ())
    [ (0.3, false); (0.2, true); (0.8, false); (0.5, true); (0.4, true) ];
  let curve = Bo.History.best_so_far h in
  Alcotest.(check (array (float 1e-9))) "curve"
    [| neg_infinity; 0.2; 0.2; 0.5; 0.5 |] curve

let test_history_feasible_fraction () =
  let h = Bo.History.create () in
  Alcotest.(check (float 0.)) "empty" 0. (Bo.History.feasible_fraction h);
  Bo.History.add h ~config:(cfg 1) ~objective:0.1 ~feasible:true ();
  Bo.History.add h ~config:(cfg 2) ~objective:0.1 ~feasible:false ();
  Alcotest.(check (float 1e-9)) "half" 0.5 (Bo.History.feasible_fraction h)

let test_history_mem_config () =
  let h = Bo.History.create () in
  Bo.History.add h ~config:(cfg 1) ~objective:0.1 ~feasible:true ();
  Alcotest.(check bool) "member" true (Bo.History.mem_config h (cfg 1));
  Alcotest.(check bool) "not member" false (Bo.History.mem_config h (cfg 2))

let test_history_last () =
  let h = Bo.History.create () in
  Alcotest.(check bool) "empty" true (Bo.History.last h = None);
  Bo.History.add h ~config:(cfg 1) ~objective:0.1 ~feasible:true ();
  Bo.History.add h ~config:(cfg 2) ~objective:0.2 ~feasible:true ();
  match Bo.History.last h with
  | Some e -> Alcotest.(check int) "iteration" 2 e.Bo.History.iteration
  | None -> Alcotest.fail "expected last"

(* Acquisition *)

let test_ei_zero_std () =
  Alcotest.(check (float 1e-9)) "no improvement" 0.
    (Bo.Acquisition.expected_improvement ~mean:0.4 ~std:0. ~best:0.5);
  Alcotest.(check (float 1e-9)) "deterministic improvement" 0.1
    (Bo.Acquisition.expected_improvement ~mean:0.6 ~std:0. ~best:0.5)

let test_ei_no_incumbent () =
  Alcotest.(check bool) "infinite" true
    (Bo.Acquisition.expected_improvement ~mean:0. ~std:1. ~best:neg_infinity
    = infinity)

let test_ei_increases_with_mean_and_std () =
  let base = Bo.Acquisition.expected_improvement ~mean:0.5 ~std:0.1 ~best:0.5 in
  let higher_mean =
    Bo.Acquisition.expected_improvement ~mean:0.6 ~std:0.1 ~best:0.5
  in
  let higher_std =
    Bo.Acquisition.expected_improvement ~mean:0.5 ~std:0.3 ~best:0.5
  in
  Alcotest.(check bool) "mean helps" true (higher_mean > base);
  Alcotest.(check bool) "uncertainty helps" true (higher_std > base);
  Alcotest.(check bool) "positive" true (base > 0.)

let test_ucb () =
  Alcotest.(check (float 1e-9)) "ucb" 1.2
    (Bo.Acquisition.upper_confidence_bound ~mean:1. ~std:0.1 ~kappa:2.)

(* Surrogate *)

let test_surrogate_fits_smooth_function () =
  let r = rng () in
  let x = Array.init 120 (fun i -> [| float_of_int i /. 120. |]) in
  let y = Array.map (fun p -> sin (6. *. p.(0))) x in
  let s = Bo.Surrogate.fit r ~x ~y () in
  let mean, std = Bo.Surrogate.predict s [| 0.5 |] in
  Alcotest.(check bool) "mean close" true (Float.abs (mean -. sin 3.) < 0.25);
  Alcotest.(check bool) "std finite" true (std >= 0. && Float.is_finite std)

(* Feasibility *)

let test_feasibility_constant_cases () =
  let r = rng () in
  let x = [| [| 0. |]; [| 1. |] |] in
  let all_true = Bo.Feasibility.fit r ~x ~feasible:[| true; true |] () in
  Alcotest.(check (float 1e-9)) "always feasible" 1.
    (Bo.Feasibility.prob_feasible all_true [| 0.5 |]);
  let all_false = Bo.Feasibility.fit r ~x ~feasible:[| false; false |] () in
  Alcotest.(check (float 1e-9)) "optimistic prior" 0.5
    (Bo.Feasibility.prob_feasible all_false [| 0.5 |])

let test_feasibility_learns_region () =
  let r = rng () in
  let x = Array.init 200 (fun i -> [| float_of_int i /. 200. |]) in
  let feasible = Array.map (fun p -> p.(0) < 0.5) x in
  let m = Bo.Feasibility.fit r ~x ~feasible () in
  Alcotest.(check bool) "low side feasible" true
    (Bo.Feasibility.prob_feasible m [| 0.1 |] > 0.8);
  Alcotest.(check bool) "high side infeasible" true
    (Bo.Feasibility.prob_feasible m [| 0.9 |] < 0.2)

(* Scalarize *)

let test_scalarize_weights_normalized () =
  let s = Bo.Scalarize.of_weights [| 2.; 6. |] in
  Alcotest.(check (array (float 1e-9))) "normalized" [| 0.25; 0.75 |]
    (Bo.Scalarize.weights s)

let test_scalarize_apply () =
  let s = Bo.Scalarize.of_weights [| 1.; 1. |] in
  Alcotest.(check (float 1e-9)) "mean" 0.5 (Bo.Scalarize.apply s [| 0.; 1. |])

let test_scalarize_rejects () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Scalarize.of_weights: negative weight") (fun () ->
      ignore (Bo.Scalarize.of_weights [| -1.; 2. |]))

let test_scalarize_draw_simplex () =
  let r = rng () in
  for _ = 1 to 50 do
    let s = Bo.Scalarize.draw r ~n_objectives:4 in
    let w = Bo.Scalarize.weights s in
    Alcotest.(check (float 1e-9)) "sums to 1" 1. (Array.fold_left ( +. ) 0. w);
    Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.)) w
  done

let test_pareto_front () =
  let points = [| [| 1.; 1. |]; [| 2.; 0.5 |]; [| 0.5; 2. |]; [| 0.4; 0.4 |] |] in
  let front = Bo.Scalarize.pareto_front points in
  Alcotest.(check (array int)) "dominated point excluded" [| 0; 1; 2 |] front

let test_chebyshev_prefers_balanced () =
  let s = Bo.Scalarize.of_weights [| 1.; 1. |] in
  let reference = [| 1.; 1. |] in
  let balanced = Bo.Scalarize.apply_chebyshev s ~reference [| 0.8; 0.8 |] in
  let lopsided = Bo.Scalarize.apply_chebyshev s ~reference [| 1.; 0.2 |] in
  Alcotest.(check bool) "balanced wins" true (balanced > lopsided)

(* Optimizer end-to-end on a known landscape. *)

let quadratic_space =
  Bo.Design_space.create
    [ Bo.Param.real "x" ~lo:(-5.) ~hi:5.; Bo.Param.real "y" ~lo:(-5.) ~hi:5. ]

let quadratic_eval config =
  let x = Bo.Config.get_float config "x" and y = Bo.Config.get_float config "y" in
  {
    Bo.Optimizer.objective = -.((x -. 2.) ** 2.) -. ((y +. 1.) ** 2.);
    feasible = true;
    pruned = false;
    metadata = [];
  }

let test_optimizer_calls_black_box_exactly () =
  let count = ref 0 in
  let f config =
    incr count;
    quadratic_eval config
  in
  let settings =
    { Bo.Optimizer.default_settings with Bo.Optimizer.n_init = 5; n_iter = 7 }
  in
  let h =
    Bo.Optimizer.maximize (rng ()) ~settings quadratic_space
      ~f:(fun ~index:_ c -> f c)
  in
  Alcotest.(check int) "12 evaluations" 12 !count;
  Alcotest.(check int) "history length" 12 (Bo.History.length h)

let test_optimizer_beats_warmup () =
  (* BO is stochastic; judge typical behaviour across three seeds. *)
  let run seed =
    let settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 8;
        n_iter = 25;
        pool_size = 100;
      }
    in
    let h =
      Bo.Optimizer.maximize (Rng.create seed) ~settings quadratic_space
        ~f:(fun ~index:_ c -> quadratic_eval c)
    in
    let curve = Bo.History.best_so_far h in
    (curve.(7), curve.(Array.length curve - 1))
  in
  let runs = List.map run [ 1; 2; 3 ] in
  List.iter
    (fun (warm, final) ->
      Alcotest.(check bool) "never regresses" true (final >= warm))
    runs;
  let improved = List.filter (fun (w, f) -> f > w) runs in
  Alcotest.(check bool) "improves past warm-up on most seeds" true
    (List.length improved >= 2);
  let best_final = List.fold_left (fun acc (_, f) -> Stdlib.max acc f) neg_infinity runs in
  Alcotest.(check bool) "gets close to optimum" true (best_final > -1.5)

let test_optimizer_respects_feasibility () =
  (* Optimum at x=2 is infeasible; best feasible is on the x<=0 side. *)
  let f config =
    let x = Bo.Config.get_float config "x" in
    let y = Bo.Config.get_float config "y" in
    {
      Bo.Optimizer.objective = -.((x -. 2.) ** 2.) -. (y ** 2.);
      feasible = x <= 0.;
      pruned = false;
      metadata = [];
    }
  in
  let settings =
    { Bo.Optimizer.default_settings with Bo.Optimizer.n_init = 10; n_iter = 20 }
  in
  let h =
    Bo.Optimizer.maximize (rng ()) ~settings quadratic_space
      ~f:(fun ~index:_ c -> f c)
  in
  match Bo.History.best h with
  | Some e ->
      Alcotest.(check bool) "best is feasible" true e.Bo.History.feasible;
      Alcotest.(check bool) "x <= 0" true (Bo.Config.get_float e.Bo.History.config "x" <= 0.)
  | None -> Alcotest.fail "expected a feasible best"

let test_optimizer_callback_invoked () =
  let calls = ref 0 in
  let settings =
    { Bo.Optimizer.default_settings with Bo.Optimizer.n_init = 3; n_iter = 2 }
  in
  let _ =
    Bo.Optimizer.maximize (rng ()) ~settings
      ~observer:
        {
          Bo.Optimizer.no_observer with
          on_commit =
            (fun i entry ->
              incr calls;
              Alcotest.(check int) "iteration matches" i entry.Bo.History.iteration);
        }
      quadratic_space ~f:(fun ~index:_ c -> quadratic_eval c)
  in
  Alcotest.(check int) "5 callbacks" 5 !calls

let test_optimizer_batched_budget_exact () =
  (* Batching regroups evaluations into concurrent rounds but must not change
     the total budget, even when batch_size does not divide n_init/n_iter. *)
  let count = ref 0 in
  let lock = Mutex.create () in
  let f config =
    Mutex.lock lock;
    incr count;
    Mutex.unlock lock;
    quadratic_eval config
  in
  let settings =
    {
      Bo.Optimizer.default_settings with
      Bo.Optimizer.n_init = 5;
      n_iter = 7;
      batch_size = 3;
    }
  in
  let pool = Homunculus_par.Par.create ~jobs:4 () in
  let h =
    Bo.Optimizer.maximize (rng ()) ~settings ~exec:(Bo.Optimizer.Pool pool)
      quadratic_space ~f:(fun ~index:_ c -> f c)
  in
  Homunculus_par.Par.shutdown pool;
  Alcotest.(check int) "12 evaluations" 12 !count;
  Alcotest.(check int) "history length" 12 (Bo.History.length h)

let entries_identical a b =
  let open Bo.History in
  List.length (entries a) = List.length (entries b)
  && List.for_all2
       (fun x y ->
         x.iteration = y.iteration
         && Bo.Config.equal x.config y.config
         && x.objective = y.objective
         && x.feasible = y.feasible
         && x.metadata = y.metadata)
       (entries a) (entries b)

let test_optimizer_deterministic_across_worker_counts () =
  (* The hard guarantee behind --jobs: for a fixed seed and settings
     (including batch_size and the surrogate refit cadence), the history is
     bit-identical whether the pool has one worker or several. *)
  let base =
    {
      Bo.Optimizer.default_settings with
      Bo.Optimizer.n_init = 6;
      n_iter = 10;
      pool_size = 40;
      surrogate_trees = 10;
      batch_size = 3;
    }
  in
  let sparse_refits =
    { base with Bo.Optimizer.refit_every = 4; refit_threshold = base.n_init }
  in
  let run settings jobs =
    let pool = Homunculus_par.Par.create ~jobs () in
    let h =
      Bo.Optimizer.maximize (Rng.create 7) ~settings
        ~exec:(Bo.Optimizer.Pool pool) quadratic_space
        ~f:(fun ~index:_ c -> quadratic_eval c)
    in
    Homunculus_par.Par.shutdown pool;
    h
  in
  List.iter
    (fun (name, settings) ->
      let h1 = run settings 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: history identical at jobs=%d" name jobs)
            true
            (entries_identical h1 (run settings jobs)))
        [ 2; 4 ])
    [ ("refit every round", base); ("refit every 4", sparse_refits) ]

let test_random_search_budget () =
  let count = ref 0 in
  let f config =
    incr count;
    quadratic_eval config
  in
  let h = Bo.Optimizer.random_search (rng ()) ~n:9 quadratic_space ~f in
  Alcotest.(check int) "9 evals" 9 !count;
  Alcotest.(check int) "9 entries" 9 (Bo.History.length h)

let suite =
  [
    Alcotest.test_case "param constructors validate" `Quick test_param_constructors_validate;
    Alcotest.test_case "param validate" `Quick test_param_validate;
    Alcotest.test_case "param sample in domain" `Quick test_param_sample_in_domain;
    Alcotest.test_case "param neighbor local" `Quick test_param_neighbor_valid_and_local;
    Alcotest.test_case "param neighbor rejects" `Quick test_param_neighbor_rejects_invalid;
    Alcotest.test_case "param log neighbor chain" `Quick
      test_param_log_neighbor_chain_stays_valid;
    Alcotest.test_case "param encode" `Quick test_param_encode_normalizes;
    Alcotest.test_case "param cardinality" `Quick test_param_cardinality;
    Alcotest.test_case "param to_string" `Quick test_param_value_to_string;
    Alcotest.test_case "config getters" `Quick test_config_getters;
    Alcotest.test_case "config rejects duplicates" `Quick test_config_rejects_duplicates;
    Alcotest.test_case "config equal unordered" `Quick test_config_equal_order_insensitive;
    Alcotest.test_case "config shape errors" `Quick test_config_wrong_shape_getter;
    Alcotest.test_case "space sample valid" `Quick test_space_sample_valid;
    Alcotest.test_case "space rejects duplicates" `Quick test_space_rejects_duplicates;
    Alcotest.test_case "space encode dim" `Quick test_space_encode_dim;
    Alcotest.test_case "space neighbor valid" `Quick test_space_neighbor_valid;
    Alcotest.test_case "space validate missing" `Quick test_space_validate_catches_missing;
    Alcotest.test_case "space log cardinality" `Quick test_space_log_cardinality;
    Alcotest.test_case "history best feasible" `Quick test_history_best_ignores_infeasible;
    Alcotest.test_case "history best NaN never wins" `Quick
      test_history_best_nan_never_wins;
    Alcotest.test_case "history best_entry total" `Quick
      test_history_best_entry_total;
    Alcotest.test_case "history regret curve" `Quick test_history_best_so_far_monotone;
    Alcotest.test_case "history feasible fraction" `Quick test_history_feasible_fraction;
    Alcotest.test_case "history mem config" `Quick test_history_mem_config;
    Alcotest.test_case "history last" `Quick test_history_last;
    Alcotest.test_case "EI zero std" `Quick test_ei_zero_std;
    Alcotest.test_case "EI no incumbent" `Quick test_ei_no_incumbent;
    Alcotest.test_case "EI monotone" `Quick test_ei_increases_with_mean_and_std;
    Alcotest.test_case "UCB" `Quick test_ucb;
    Alcotest.test_case "surrogate fits" `Quick test_surrogate_fits_smooth_function;
    Alcotest.test_case "feasibility constants" `Quick test_feasibility_constant_cases;
    Alcotest.test_case "feasibility learns region" `Quick test_feasibility_learns_region;
    Alcotest.test_case "scalarize normalizes" `Quick test_scalarize_weights_normalized;
    Alcotest.test_case "scalarize apply" `Quick test_scalarize_apply;
    Alcotest.test_case "scalarize rejects" `Quick test_scalarize_rejects;
    Alcotest.test_case "scalarize simplex" `Quick test_scalarize_draw_simplex;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    Alcotest.test_case "chebyshev balanced" `Quick test_chebyshev_prefers_balanced;
    Alcotest.test_case "optimizer budget exact" `Quick test_optimizer_calls_black_box_exactly;
    Alcotest.test_case "optimizer beats warm-up" `Quick test_optimizer_beats_warmup;
    Alcotest.test_case "optimizer feasibility" `Quick test_optimizer_respects_feasibility;
    Alcotest.test_case "optimizer callback" `Quick test_optimizer_callback_invoked;
    Alcotest.test_case "optimizer batched budget exact" `Quick
      test_optimizer_batched_budget_exact;
    Alcotest.test_case "optimizer deterministic across workers" `Quick
      test_optimizer_deterministic_across_worker_counts;
    Alcotest.test_case "random search budget" `Quick test_random_search_budget;
  ]
