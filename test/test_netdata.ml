(* Packets, flows, histograms, the flow simulator, and dataset generators. *)
open Homunculus_netdata
module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset

let feq = Alcotest.(check (float 1e-9))

(* Packet *)

let test_packet_make_validates () =
  Alcotest.check_raises "negative ts"
    (Invalid_argument "Packet.make: negative timestamp") (fun () ->
      ignore (Packet.make ~ts:(-1.) ~size:100));
  List.iter
    (fun ts ->
      Alcotest.check_raises "non-finite ts"
        (Invalid_argument "Packet.make: non-finite timestamp") (fun () ->
          ignore (Packet.make ~ts ~size:100)))
    [ Float.nan; infinity; neg_infinity ];
  Alcotest.check_raises "zero size"
    (Invalid_argument "Packet.make: non-positive size") (fun () ->
      ignore (Packet.make ~ts:0. ~size:0))

let train =
  [|
    Packet.make ~ts:0. ~size:100;
    Packet.make ~ts:1.5 ~size:200;
    Packet.make ~ts:4. ~size:300;
  |]

let test_packet_iat () =
  Alcotest.(check (array (float 1e-9))) "gaps" [| 1.5; 2.5 |]
    (Packet.inter_arrival_times train);
  Alcotest.(check (array (float 1e-9))) "single packet" [||]
    (Packet.inter_arrival_times [| Packet.make ~ts:0. ~size:1 |])

let test_packet_totals () =
  Alcotest.(check int) "bytes" 600 (Packet.total_bytes train);
  feq "duration" 4. (Packet.duration train)

(* Histogram *)

let test_histogram_binning () =
  let h = Histogram.create (Histogram.spec ~n_bins:4 ~bin_width:10.) in
  Histogram.add h 5.;
  Histogram.add h 15.;
  Histogram.add h 15.;
  Histogram.add h 999.;
  Histogram.add h (-3.);
  Alcotest.(check (array (float 0.))) "counts" [| 2.; 2.; 0.; 1. |]
    (Histogram.counts h);
  feq "total" 5. (Histogram.count h)

let test_histogram_normalized () =
  let h = Histogram.create (Histogram.spec ~n_bins:2 ~bin_width:1.) in
  Histogram.add_all h [| 0.5; 0.5; 1.5; 0.5 |];
  Alcotest.(check (array (float 1e-9))) "normalized" [| 0.75; 0.25 |]
    (Histogram.normalized h)

let test_histogram_empty_normalized () =
  let h = Histogram.create (Histogram.spec ~n_bins:3 ~bin_width:1.) in
  Alcotest.(check (array (float 0.))) "all zero" [| 0.; 0.; 0. |]
    (Histogram.normalized h)

let test_histogram_reset_copy () =
  let h = Histogram.create (Histogram.spec ~n_bins:2 ~bin_width:1.) in
  Histogram.add h 0.;
  let c = Histogram.copy h in
  Histogram.reset h;
  feq "reset" 0. (Histogram.count h);
  feq "copy untouched" 1. (Histogram.count c)

let test_histogram_fuse () =
  let h = Histogram.create (Histogram.spec ~n_bins:6 ~bin_width:1.) in
  Histogram.add_all h [| 0.5; 1.5; 2.5; 3.5; 4.5; 5.5 |];
  let f = Histogram.fuse h ~factor:2 in
  Alcotest.(check int) "3 bins" 3 (Histogram.spec_of f).Histogram.n_bins;
  Alcotest.(check (array (float 0.))) "pairwise sums" [| 2.; 2.; 2. |]
    (Histogram.counts f);
  feq "mass preserved" (Histogram.count h) (Histogram.count f)

let test_histogram_fuse_uneven () =
  let h = Histogram.create (Histogram.spec ~n_bins:5 ~bin_width:1.) in
  Histogram.add_all h [| 0.1; 1.1; 2.1; 3.1; 4.1 |];
  let f = Histogram.fuse h ~factor:2 in
  Alcotest.(check int) "ceil(5/2)" 3 (Histogram.spec_of f).Histogram.n_bins;
  Alcotest.(check (array (float 0.))) "last group smaller" [| 2.; 2.; 1. |]
    (Histogram.counts f)

let test_histogram_fuse_to () =
  let h = Histogram.create (Histogram.spec ~n_bins:92 ~bin_width:16.) in
  let f = Histogram.fuse_to h ~target_bins:23 in
  Alcotest.(check int) "23 bins" 23 (Histogram.spec_of f).Histogram.n_bins

(* Flow *)

let mk_flow label =
  Flow.make ~id:1 ~label ~app:"test" ~packets:train

let test_flow_sorts_packets () =
  let unsorted =
    [| Packet.make ~ts:5. ~size:10; Packet.make ~ts:1. ~size:20 |]
  in
  let f = Flow.make ~id:0 ~label:Flow.Benign ~app:"x" ~packets:unsorted in
  feq "sorted duration" 4. (Flow.duration f)

let test_flow_stats () =
  let f = mk_flow Flow.Botnet in
  Alcotest.(check int) "n_packets" 3 (Flow.n_packets f);
  Alcotest.(check int) "bytes" 600 (Flow.total_bytes f);
  feq "mean size" 200. (Flow.mean_packet_size f);
  feq "mean iat" 2. (Flow.mean_inter_arrival f)

let test_flow_labels () =
  Alcotest.(check int) "benign 0" 0 (Flow.label_to_int Flow.Benign);
  Alcotest.(check int) "botnet 1" 1 (Flow.label_to_int Flow.Botnet);
  Alcotest.(check string) "name" "botnet" (Flow.label_to_string Flow.Botnet)

let test_flowmarker_shape_and_mass () =
  let f = mk_flow Flow.Benign in
  let pl_spec = Histogram.spec ~n_bins:4 ~bin_width:128. in
  let ipt_spec = Histogram.spec ~n_bins:3 ~bin_width:2. in
  let fm = Flow.flowmarker f ~pl_spec ~ipt_spec () in
  Alcotest.(check int) "4+3 features" 7 (Array.length fm);
  let pl_mass = Array.fold_left ( +. ) 0. (Array.sub fm 0 4) in
  let ipt_mass = Array.fold_left ( +. ) 0. (Array.sub fm 4 3) in
  feq "pl normalized" 1. pl_mass;
  feq "ipt normalized" 1. ipt_mass

let test_flowmarker_partial () =
  let f = mk_flow Flow.Benign in
  let pl_spec = Histogram.spec ~n_bins:4 ~bin_width:128. in
  let ipt_spec = Histogram.spec ~n_bins:3 ~bin_width:2. in
  let fm1 = Flow.flowmarker f ~pl_spec ~ipt_spec ~first_packets:1 () in
  (* One packet: one PL observation, no IPT observations. *)
  feq "one pl obs" 1. (Array.fold_left ( +. ) 0. (Array.sub fm1 0 4));
  feq "no ipt obs" 0. (Array.fold_left ( +. ) 0. (Array.sub fm1 4 3))

(* Flowsim *)

let test_flowsim_profiles_exist () =
  let rng = Rng.create 1 in
  Array.iter
    (fun app ->
      let f = Flowsim.generate_flow rng ~id:0 ~app () in
      Alcotest.(check bool) "botnet label" true (f.Flow.label = Flow.Botnet))
    Flowsim.botnet_apps;
  Array.iter
    (fun app ->
      let f = Flowsim.generate_flow rng ~id:0 ~app () in
      Alcotest.(check bool) "benign label" true (f.Flow.label = Flow.Benign))
    Flowsim.benign_apps

let test_flowsim_unknown_app () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Flowsim.profile_of_app: unknown application nessus")
    (fun () -> ignore (Flowsim.generate_flow rng ~id:0 ~app:"nessus" ()))

let test_flowsim_max_packets () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    let f = Flowsim.generate_flow rng ~id:0 ~app:"utorrent" ~max_packets:50 () in
    Alcotest.(check bool) "capped" true (Flow.n_packets f <= 50)
  done

let test_flowsim_mix () =
  let rng = Rng.create 3 in
  let flows =
    Flowsim.generate rng
      ~mix:{ Flowsim.n_flows = 200; botnet_frac = 0.5; max_packets = 100 }
      ()
  in
  Alcotest.(check int) "200 flows" 200 (Array.length flows);
  let botnets =
    Array.fold_left
      (fun acc f -> if f.Flow.label = Flow.Botnet then acc + 1 else acc)
      0 flows
  in
  Alcotest.(check bool) "roughly half botnet" true (botnets > 60 && botnets < 140)

let test_flowsim_class_contrast () =
  (* The paper's Fig. 6 premise: botnet flows have smaller packets and larger
     gaps than benign P2P flows, on average. *)
  let rng = Rng.create 4 in
  let flows = Flowsim.generate rng () in
  let mean_of label f =
    let xs =
      Array.to_list flows
      |> List.filter (fun fl -> fl.Flow.label = label)
      |> List.map f
    in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let bot_size = mean_of Flow.Botnet Flow.mean_packet_size in
  let ben_size = mean_of Flow.Benign Flow.mean_packet_size in
  let bot_gap = mean_of Flow.Botnet Flow.mean_inter_arrival in
  let ben_gap = mean_of Flow.Benign Flow.mean_inter_arrival in
  Alcotest.(check bool) "botnet packets smaller" true (bot_size < ben_size);
  Alcotest.(check bool) "botnet gaps larger" true (bot_gap > ben_gap)

let test_average_flowmarker () =
  let rng = Rng.create 5 in
  let flows = Flowsim.generate rng () in
  let pl, ipt =
    Flowsim.average_flowmarker flows ~label:Flow.Botnet
      ~pl_spec:Botnet.pl_spec_fused ~ipt_spec:Botnet.ipt_spec_fused
  in
  Alcotest.(check int) "23 pl bins" 23 (Array.length pl);
  Alcotest.(check int) "7 ipt bins" 7 (Array.length ipt);
  Alcotest.(check (float 1e-6)) "pl mass 1" 1. (Array.fold_left ( +. ) 0. pl)

(* Dataset generators *)

let test_nslkdd_shapes () =
  let rng = Rng.create 6 in
  let d = Nslkdd.generate rng ~n:500 () in
  Alcotest.(check int) "500 samples" 500 (Dataset.n_samples d);
  Alcotest.(check int) "7 features" 7 (Dataset.n_features d);
  Alcotest.(check int) "binary" 2 d.Dataset.n_classes;
  let counts = Dataset.class_counts d in
  Alcotest.(check bool) "both classes present" true (counts.(0) > 50 && counts.(1) > 50)

let test_nslkdd_deterministic () =
  let a = Nslkdd.generate (Rng.create 7) ~n:100 () in
  let b = Nslkdd.generate (Rng.create 7) ~n:100 () in
  Alcotest.(check bool) "same data" true (a.Dataset.x = b.Dataset.x && a.Dataset.y = b.Dataset.y)

let test_nslkdd_learnable_but_hard () =
  (* A small linear probe should land well between chance and perfection —
     that head-room is what the Table 2 experiment exploits. *)
  let rng = Rng.create 8 in
  let train, test = Nslkdd.generate_split rng ~n_train:1200 ~n_test:600 () in
  let scaler, train_s = Homunculus_ml.Scaler.fit_dataset train in
  let test_s = Homunculus_ml.Scaler.apply_dataset scaler test in
  let svm = Homunculus_ml.Svm.fit (Rng.create 1) train_s in
  let pred = Homunculus_ml.Svm.predict_all svm test_s.Dataset.x in
  let f1 = Homunculus_ml.Metrics.f1 ~pred ~truth:test_s.Dataset.y () in
  Alcotest.(check bool) "f1 in (0.5, 0.97)" true (f1 > 0.5 && f1 < 0.97)

let test_iot_shapes () =
  let rng = Rng.create 9 in
  let d = Iot.generate rng ~n:500 () in
  Alcotest.(check int) "7 features" 7 (Dataset.n_features d);
  Alcotest.(check int) "5 classes" 5 d.Dataset.n_classes;
  Array.iter
    (fun c -> Alcotest.(check bool) "all classes present" true (c > 50))
    (Dataset.class_counts d)

let test_iot_clusters_separable () =
  let rng = Rng.create 10 in
  let d = Iot.generate rng ~n:1000 () in
  let _, ds = Homunculus_ml.Scaler.fit_dataset d in
  let tree =
    Homunculus_ml.Decision_tree.Classifier.fit ~x:ds.Dataset.x ~y:ds.Dataset.y
      ~n_classes:5 ()
  in
  let pred = Homunculus_ml.Decision_tree.Classifier.predict_all tree ds.Dataset.x in
  Alcotest.(check bool) "tree fits" true
    (Homunculus_ml.Metrics.accuracy ~pred ~truth:ds.Dataset.y > 0.8)

let test_botnet_feature_counts () =
  Alcotest.(check int) "fused 30" 30 (Botnet.n_features Botnet.Fused);
  Alcotest.(check int) "full 151" 151 (Botnet.n_features Botnet.Full);
  Alcotest.(check int) "names match" 30
    (Array.length (Botnet.feature_names Botnet.Fused))

let test_botnet_generate_shapes () =
  let rng = Rng.create 11 in
  let train, test =
    Botnet.generate rng ~n_train_flows:40 ~n_test_flows:20 ~prefixes_per_flow:5 ()
  in
  Alcotest.(check int) "train = flows" 40 (Dataset.n_samples train);
  Alcotest.(check bool) "test has multiple prefixes per flow" true
    (Dataset.n_samples test > 20);
  Alcotest.(check int) "30 features" 30 (Dataset.n_features train);
  Alcotest.(check int) "binary" 2 train.Dataset.n_classes

let test_botnet_full_flow_separable () =
  (* Full-flow histograms should separate the classes well (the paper's
     FlowLens baseline achieves a perfect score on full flowmarkers). *)
  let rng = Rng.create 12 in
  let train, _ =
    Botnet.generate rng ~n_train_flows:150 ~n_test_flows:20 ()
  in
  let tree =
    Homunculus_ml.Decision_tree.Classifier.fit ~x:train.Dataset.x
      ~y:train.Dataset.y ~n_classes:2 ()
  in
  let pred = Homunculus_ml.Decision_tree.Classifier.predict_all tree train.Dataset.x in
  Alcotest.(check bool) "separable" true
    (Homunculus_ml.Metrics.f1 ~pred ~truth:train.Dataset.y () > 0.95)

(* Trace *)

(* Timestamps are printed with [%.9f], so generate multiples of 1/512 s:
   exact binary fractions whose decimal expansion fits in 9 digits, making
   the text rendering lossless and the round trip exact. Distinct
   timestamps per flow keep the sort order unambiguous. *)
let trace_gen =
  QCheck.Gen.(
    let packets_gen =
      list_size (int_range 1 30) (int_range 0 1_000_000) >>= fun ks ->
      let ks = List.sort_uniq compare ks in
      list_repeat (List.length ks) (int_range 40 1500) >|= fun sizes ->
      Array.of_list
        (List.map2
           (fun k size -> Packet.make ~ts:(float_of_int k /. 512.) ~size)
           ks sizes)
    in
    let flow_gen =
      triple (int_range 0 9999)
        (oneofl [ Flow.Benign; Flow.Botnet ])
        (oneofl [ "storm"; "waledac"; "utorrent"; "emule"; "web" ])
      >>= fun (id, label, app) ->
      packets_gen >|= fun packets -> Flow.make ~id ~label ~app ~packets
    in
    list_size (int_range 0 8) flow_gen >|= Array.of_list)

let prop_trace_round_trip =
  QCheck.Test.make ~name:"trace round trip" ~count:100 (QCheck.make trace_gen)
    (fun flows -> Trace.of_string (Trace.to_string flows) = flows)

let header = "# homunculus-trace v1"

let trace_rejects what text expected =
  Alcotest.check_raises what (Invalid_argument expected) (fun () ->
      ignore (Trace.of_string text))

let test_trace_malformed () =
  trace_rejects "missing header" "flow 0 benign web 1\n0.0 100\n"
    "Trace: missing header line";
  trace_rejects "garbage record"
    (header ^ "\nhello world\n")
    "Trace: line 2: expected a flow record, found \"hello world\"";
  trace_rejects "bad flow id"
    (header ^ "\nflow seven benign web 1\n0.0 100\n")
    "Trace: line 2: bad flow id \"seven\"";
  trace_rejects "unknown label"
    (header ^ "\nflow 0 evil web 1\n0.0 100\n")
    "Trace: line 2: unknown label \"evil\"";
  trace_rejects "bad packet count"
    (header ^ "\nflow 0 benign web zero\n0.0 100\n")
    "Trace: line 2: bad packet count \"zero\"";
  trace_rejects "non-positive packet count"
    (header ^ "\nflow 0 benign web 0\n")
    "Trace: line 2: bad packet count \"0\"";
  trace_rejects "truncated flow"
    (header ^ "\nflow 0 benign web 5\n0.0 100\n")
    "Trace: line 2: truncated flow (5 packets declared)";
  trace_rejects "bad packet line"
    (header ^ "\nflow 0 benign web 1\nnot a packet\n")
    "Trace: line 3: bad packet \"not a packet\""

let test_trace_empty_and_blank_lines () =
  Alcotest.(check int) "header only" 0
    (Array.length (Trace.of_string (header ^ "\n")));
  let flows =
    Trace.of_string (header ^ "\n\nflow 3 botnet storm 1\n0.5 99\n\n")
  in
  Alcotest.(check int) "blank lines skipped" 1 (Array.length flows);
  Alcotest.(check int) "id" 3 flows.(0).Flow.id;
  Alcotest.(check int) "size" 99 flows.(0).Flow.packets.(0).Packet.size

let suite =
  [
    Alcotest.test_case "packet validates" `Quick test_packet_make_validates;
    Alcotest.test_case "packet iat" `Quick test_packet_iat;
    Alcotest.test_case "packet totals" `Quick test_packet_totals;
    Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
    Alcotest.test_case "histogram normalized" `Quick test_histogram_normalized;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty_normalized;
    Alcotest.test_case "histogram reset/copy" `Quick test_histogram_reset_copy;
    Alcotest.test_case "histogram fuse" `Quick test_histogram_fuse;
    Alcotest.test_case "histogram fuse uneven" `Quick test_histogram_fuse_uneven;
    Alcotest.test_case "histogram fuse_to" `Quick test_histogram_fuse_to;
    Alcotest.test_case "flow sorts" `Quick test_flow_sorts_packets;
    Alcotest.test_case "flow stats" `Quick test_flow_stats;
    Alcotest.test_case "flow labels" `Quick test_flow_labels;
    Alcotest.test_case "flowmarker shape" `Quick test_flowmarker_shape_and_mass;
    Alcotest.test_case "flowmarker partial" `Quick test_flowmarker_partial;
    Alcotest.test_case "flowsim profiles" `Quick test_flowsim_profiles_exist;
    Alcotest.test_case "flowsim unknown app" `Quick test_flowsim_unknown_app;
    Alcotest.test_case "flowsim packet cap" `Quick test_flowsim_max_packets;
    Alcotest.test_case "flowsim mix" `Quick test_flowsim_mix;
    Alcotest.test_case "flowsim class contrast" `Quick test_flowsim_class_contrast;
    Alcotest.test_case "average flowmarker" `Quick test_average_flowmarker;
    Alcotest.test_case "nslkdd shapes" `Quick test_nslkdd_shapes;
    Alcotest.test_case "nslkdd deterministic" `Quick test_nslkdd_deterministic;
    Alcotest.test_case "nslkdd difficulty" `Quick test_nslkdd_learnable_but_hard;
    Alcotest.test_case "iot shapes" `Quick test_iot_shapes;
    Alcotest.test_case "iot separable" `Quick test_iot_clusters_separable;
    Alcotest.test_case "botnet feature counts" `Quick test_botnet_feature_counts;
    Alcotest.test_case "botnet shapes" `Quick test_botnet_generate_shapes;
    Alcotest.test_case "botnet separable" `Quick test_botnet_full_flow_separable;
    QCheck_alcotest.to_alcotest prop_trace_round_trip;
    Alcotest.test_case "trace malformed input" `Quick test_trace_malformed;
    Alcotest.test_case "trace blank lines" `Quick test_trace_empty_and_blank_lines;
  ]
