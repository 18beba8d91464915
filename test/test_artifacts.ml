(* Flow-trace persistence and Verilog emission. *)
open Homunculus_backends
open Homunculus_netdata
module Rng = Homunculus_util.Rng

(* Trace *)

let test_trace_roundtrip () =
  let rng = Rng.create 1 in
  let flows =
    Flowsim.generate rng
      ~mix:{ Flowsim.n_flows = 25; botnet_frac = 0.4; max_packets = 60 }
      ()
  in
  let back = Trace.of_string (Trace.to_string flows) in
  Alcotest.(check int) "flow count" (Array.length flows) (Array.length back);
  Array.iteri
    (fun i f ->
      let g = back.(i) in
      Alcotest.(check int) "id" f.Flow.id g.Flow.id;
      Alcotest.(check string) "app" f.Flow.app g.Flow.app;
      Alcotest.(check bool) "label" true (f.Flow.label = g.Flow.label);
      Alcotest.(check int) "packets" (Flow.n_packets f) (Flow.n_packets g);
      Alcotest.(check int) "bytes" (Flow.total_bytes f) (Flow.total_bytes g))
    flows

let test_trace_file_roundtrip () =
  let rng = Rng.create 2 in
  let flows =
    Flowsim.generate rng
      ~mix:{ Flowsim.n_flows = 5; botnet_frac = 0.5; max_packets = 20 }
      ()
  in
  let path = Filename.temp_file "homunculus" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save ~path flows;
      let back = Trace.load ~path in
      Alcotest.(check int) "count" 5 (Array.length back))

let test_trace_features_survive () =
  (* Flowmarkers computed from a reloaded trace match the originals. *)
  let rng = Rng.create 3 in
  let flows =
    Flowsim.generate rng
      ~mix:{ Flowsim.n_flows = 10; botnet_frac = 0.5; max_packets = 40 }
      ()
  in
  let back = Trace.of_string (Trace.to_string flows) in
  Array.iteri
    (fun i f ->
      let a = Botnet.flow_features Botnet.Fused f () in
      let b = Botnet.flow_features Botnet.Fused back.(i) () in
      Alcotest.(check bool) "same flowmarker" true
        (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b))
    flows

let test_trace_rejects_malformed () =
  let rejects s =
    try
      ignore (Trace.of_string s);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing header" true (rejects "flow 1 benign x 1\n0 1\n");
  Alcotest.(check bool) "bad label" true
    (rejects "# homunculus-trace v1\nflow 1 evil x 1\n0.0 10\n");
  Alcotest.(check bool) "truncated" true
    (rejects "# homunculus-trace v1\nflow 1 benign x 5\n0.0 10\n");
  Alcotest.(check bool) "bad packet" true
    (rejects "# homunculus-trace v1\nflow 1 benign x 1\nnot a packet\n")

(* Verilog *)

let layer n_in n_out act =
  {
    Model_ir.n_in;
    n_out;
    activation = act;
    weights = Array.make_matrix n_out n_in 0.5;
    biases = Array.make n_out (-0.25);
  }

let dnn = Model_ir.Dnn { name = "ad"; layers = [| layer 3 4 "relu"; layer 4 2 "linear" |] }

let has code sub =
  let n = String.length code and m = String.length sub in
  let rec go i = i + m <= n && (String.sub code i m = sub || go (i + 1)) in
  go 0

let test_verilog_quantize () =
  Alcotest.(check int) "one" 65536 (Verilog.quantize 1.);
  Alcotest.(check int) "half" 32768 (Verilog.quantize 0.5);
  Alcotest.(check int) "negative" (-16384) (Verilog.quantize (-0.25));
  Alcotest.(check int) "clamps" 2147483647 (Verilog.quantize 1e9)

let test_verilog_structure () =
  let rtl = Verilog.emit dnn in
  Alcotest.(check int) "two layers + top" 3 (Verilog.module_count rtl);
  Alcotest.(check bool) "timescale" true (has rtl "`timescale 1ns/1ps");
  Alcotest.(check bool) "clocked" true (has rtl "always @(posedge clk)");
  Alcotest.(check bool) "valid handshake" true (has rtl "out_valid <= in_valid");
  Alcotest.(check bool) "relu mux" true (has rtl "acc_sat[31] ? 32'sd0 : acc_sat");
  Alcotest.(check bool) "top chains stages" true (has rtl "ad_layer1 u1");
  let count sub =
    let rec go i acc =
      if i + String.length sub > String.length rtl then acc
      else if String.sub rtl i (String.length sub) = sub then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "endmodule per module" (Verilog.module_count rtl)
    (count "endmodule")

let test_verilog_weights_embedded () =
  let rtl = Verilog.emit dnn in
  (* 0.5 in Q16.16 = 0x00008000; -0.25 = 0xffffc000. *)
  Alcotest.(check bool) "weight rom" true (has rtl "32'sh00008000");
  Alcotest.(check bool) "bias rom" true (has rtl "32'shffffc000")

let test_verilog_rejects_classical () =
  Alcotest.check_raises "kmeans"
    (Invalid_argument "Verilog.emit: only DNNs take the FPGA RTL path")
    (fun () ->
      ignore (Verilog.emit (Model_ir.Kmeans { name = "k"; centroids = [| [| 0. |] |] })))

let suite =
  [
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "trace preserves features" `Quick test_trace_features_survive;
    Alcotest.test_case "trace rejects malformed" `Quick test_trace_rejects_malformed;
    Alcotest.test_case "verilog quantize" `Quick test_verilog_quantize;
    Alcotest.test_case "verilog structure" `Quick test_verilog_structure;
    Alcotest.test_case "verilog weights" `Quick test_verilog_weights_embedded;
    Alcotest.test_case "verilog rejects classical" `Quick test_verilog_rejects_classical;
  ]
