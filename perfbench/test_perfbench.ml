(* Tests for the benchmark's own arithmetic and input generation. *)

open Perfbench

let floats = Alcotest.(array (float 0.))

(* ---- nearest-rank percentile and the ten-beyond rule ---- *)

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Pstats.percentile 50. xs);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Pstats.percentile 99. xs);
  Alcotest.(check (float 0.)) "p100 is the max" 100. (Pstats.percentile 100. xs);
  Alcotest.(check (float 0.)) "p0 is the min" 1. (Pstats.percentile 0. xs);
  Alcotest.(check (float 0.)) "p99.9 of 1000 is not the max" 999.
    (Pstats.percentile 99.9 (Array.init 1000 (fun i -> float_of_int (i + 1))))

let test_beyond_rule () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Pstats.beyond ~p:99. 1000);
  Alcotest.(check bool) "p99 supported at 1000" true (Pstats.supported ~p:99. 1000);
  Alcotest.(check bool) "p99 unsupported at 999" false (Pstats.supported ~p:99. 999);
  Alcotest.(check bool) "p50 supported at 20" true (Pstats.supported ~p:50. 20);
  Alcotest.(check bool) "p50 unsupported at 19" false (Pstats.supported ~p:50. 19);
  Alcotest.(check bool) "p100 never supported" false (Pstats.supported ~p:100. 100_000);
  Alcotest.check_raises "tail refuses an unsupported p99"
    (Invalid_argument "Pstats.tail: p99 needs 10 samples beyond it, 500 samples")
    (fun () -> ignore (Pstats.tail ~p:99. (Array.make 500 1.)));
  Alcotest.(check (float 0.)) "tail = nearest rank when supported" 990.
    (Pstats.tail ~p:99. (Array.init 1000 (fun i -> float_of_int (i + 1))))

let test_median_and_band () =
  Alcotest.(check (float 0.)) "odd median" 2. (Pstats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Pstats.median [| 4.; 1.; 3.; 2. |]);
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  (* ranks 495..505 (or 475..525) around the median, 1970..1990 around p99 *)
  Alcotest.(check (float 1e-9)) "band around p50" 500. (Pstats.band_mean ~p:50. ~half_width:0.5 xs);
  Alcotest.(check (float 1e-9)) "wide band around p50" 500.
    (Pstats.band_mean ~p:50. ~half_width:2.5 xs);
  Alcotest.(check (float 1e-9)) "band around p99" 990.
    (Pstats.band_mean ~p:99. ~half_width:0.5
       (Array.init 2000 (fun i -> float_of_int (i + 1) /. 2.)));
  Alcotest.check_raises "band refuses a band reaching the last samples"
    (Invalid_argument "Pstats.band_mean: p99 unsupported on 1000 samples")
    (fun () -> ignore (Pstats.band_mean ~p:99. ~half_width:0.5 xs))

(* ---- span self time ---- *)

let span id ?parent ~phase a b name =
  { Spans.id; name; layer = Spans.layer_of name; phase; parent; start_ns = a; stop_ns = b }

let test_self_time () =
  (* root [0,100] with two overlapping children [10,40] and [30,60] and
     one disjoint child [80,90]; the first child has a child [15,20]. *)
  let all =
    [
      span 0 ~phase:"dse" 0L 100L "core.search";
      span 1 ~parent:0 ~phase:"dse" 10L 40L "par.batch";
      span 2 ~parent:0 ~phase:"dse" 30L 60L "par.batch";
      span 3 ~parent:0 ~phase:"dse" 80L 90L "core.emit";
      span 4 ~parent:1 ~phase:"dse" 15L 20L "ml.eval";
    ]
  in
  let self id = Spans.self_ns all (List.nth all id) in
  Alcotest.(check int64) "root minus the union of its children" 40L (self 0);
  Alcotest.(check int64) "child minus its own child" 25L (self 1);
  Alcotest.(check int64) "leaf is all self" 30L (self 2);
  Alcotest.(check (list (pair string (float 1e-15))))
    "self time per layer"
    [ ("core", 50e-9); ("ml", 5e-9); ("par", 55e-9) ]
    (Spans.self_by_layer all);
  Alcotest.(check (float 1e-12)) "phase coverage of its window" 0.5
    (Spans.coverage all ~phase:"dse" ~lo:(-100L) ~hi:100L);
  Alcotest.(check int64) "children outside the parent are clipped" 7L
    (Spans.covered_ns ~lo:0L ~hi:10L [ (-5L, 5L); (8L, 20L) ])

let test_recorder () =
  let t = Spans.create () in
  let inner = ref (-1) in
  Spans.within t ~phase:"p" "core.outer" (fun id ->
      Spans.within t ~phase:"p" ~parent:id "ml.inner" (fun id' -> inner := id'));
  match Spans.spans t with
  | [ a; b ] ->
      Alcotest.(check string) "inner closes first" "ml.inner" a.Spans.name;
      Alcotest.(check (option int)) "parent link" (Some b.Spans.id) a.Spans.parent;
      Alcotest.(check int) "ids" !inner a.Spans.id;
      Alcotest.(check bool) "nested inside" true
        (Int64.compare b.Spans.start_ns a.Spans.start_ns <= 0
        && Int64.compare a.Spans.stop_ns b.Spans.stop_ns <= 0)
  | _ -> Alcotest.fail "expected two spans"

(* ---- workload generation ---- *)

let test_inputs_deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      let gen seed = Workload.inputs w ~seed ~packets:2000 in
      let a = gen 7 and b = gen 7 and c = gen 8 in
      let data (i : Workload.inputs) = Homunculus_alchemy.Model_spec.load i.spec in
      let xs (i : Workload.inputs) = Array.map (fun e -> e.Homunculus_serve.Stream.features) i.events in
      let ts (i : Workload.inputs) = Array.map (fun e -> e.Homunculus_serve.Stream.ts) i.events in
      Alcotest.(check bool) (w.name ^ ": same seed, same events") true (a.events = b.events);
      Alcotest.(check floats) (w.name ^ ": same seed, same arrival times") (ts a) (ts b);
      Alcotest.(check bool) (w.name ^ ": same seed, same held-out set") true
        (a.holdout.Homunculus_ml.Dataset.x = b.holdout.Homunculus_ml.Dataset.x);
      Alcotest.(check bool) (w.name ^ ": compile spec fixed across seeds") true
        ((data a).train.Homunculus_ml.Dataset.x = (data c).train.Homunculus_ml.Dataset.x
        && (data a).test.Homunculus_ml.Dataset.x = (data c).test.Homunculus_ml.Dataset.x);
      Alcotest.(check bool) (w.name ^ ": another seed, another held-out set") false
        (a.holdout.Homunculus_ml.Dataset.x = c.holdout.Homunculus_ml.Dataset.x);
      Alcotest.(check bool) (w.name ^ ": another seed, other traffic") false (xs a = xs c);
      Alcotest.(check bool) (w.name ^ ": arrivals ascending") true
        (let t = ts a in
         let ok = ref true in
         Array.iteri (fun i x -> if i > 0 && x < t.(i - 1) then ok := false) t;
         !ok))
    Workload.all

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten beyond" `Quick test_beyond_rule;
          Alcotest.test_case "median and band" `Quick test_median_and_band;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("workload", [ Alcotest.test_case "inputs from seed" `Quick test_inputs_deterministic ]);
    ]
