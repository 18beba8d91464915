open Homunculus_ml
module Rng = Homunculus_util.Rng

let feq6 = Alcotest.(check (float 1e-6))

let small_mlp ?(seed = 1) () =
  Mlp.create (Rng.create seed) ~input_dim:3 ~hidden:[| 4; 3 |] ~output_dim:2 ()

(* Activations *)

let test_activation_apply () =
  feq6 "relu+" 2. (Activation.apply Activation.Relu 2.);
  feq6 "relu-" 0. (Activation.apply Activation.Relu (-2.));
  feq6 "linear" (-2.) (Activation.apply Activation.Linear (-2.));
  feq6 "sigmoid 0" 0.5 (Activation.apply Activation.Sigmoid 0.);
  feq6 "tanh 0" 0. (Activation.apply Activation.Tanh 0.)

let test_activation_derivative_matches_fd () =
  List.iter
    (fun act ->
      List.iter
        (fun z ->
          let h = 1e-6 in
          let fd =
            (Activation.apply act (z +. h) -. Activation.apply act (z -. h))
            /. (2. *. h)
          in
          let a = Activation.apply act z in
          let d = Activation.derivative act ~z ~a in
          Alcotest.(check (float 1e-4))
            (Printf.sprintf "%s at %g" (Activation.name act) z) fd d)
        [ -1.7; -0.3; 0.4; 2.2 ])
    [ Activation.Relu; Sigmoid; Tanh; Linear ]

let test_activation_names_roundtrip () =
  Array.iter
    (fun a ->
      Alcotest.(check bool) "roundtrip" true
        (Activation.of_name (Activation.name a) = a))
    Activation.all

let test_activation_unknown_name () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Activation.of_name: unknown activation gelu") (fun () ->
      ignore (Activation.of_name "gelu"))

(* Loss *)

let test_softmax_ce_value () =
  (* Uniform logits over 2 classes: loss = log 2. *)
  feq6 "log 2" (log 2.)
    (Loss.value Loss.Softmax_cross_entropy ~logits:[| 0.; 0. |] ~target:[| 1.; 0. |])

let test_softmax_ce_gradient () =
  let g =
    Loss.gradient Loss.Softmax_cross_entropy ~logits:[| 0.; 0. |]
      ~target:[| 1.; 0. |]
  in
  Alcotest.(check (array (float 1e-9))) "softmax - target" [| -0.5; 0.5 |] g

let test_mse () =
  feq6 "value" 2.5 (Loss.value Loss.Mse ~logits:[| 1.; 3. |] ~target:[| 0.; 1. |]);
  Alcotest.(check (array (float 1e-9))) "gradient" [| 1.; 2. |]
    (Loss.gradient Loss.Mse ~logits:[| 1.; 3. |] ~target:[| 0.; 1. |])

let test_loss_gradient_matches_fd () =
  let logits = [| 0.3; -0.7; 1.1 |] and target = [| 0.; 1.; 0. |] in
  let g = Loss.gradient Loss.Softmax_cross_entropy ~logits ~target in
  Array.iteri
    (fun i _ ->
      let h = 1e-6 in
      let bump delta =
        let l = Array.copy logits in
        l.(i) <- l.(i) +. delta;
        Loss.value Loss.Softmax_cross_entropy ~logits:l ~target
      in
      let fd = (bump h -. bump (-.h)) /. (2. *. h) in
      Alcotest.(check (float 1e-4)) (Printf.sprintf "dL/dl%d" i) fd g.(i))
    logits

(* MLP structure *)

let test_mlp_shapes () =
  let m = small_mlp () in
  Alcotest.(check (array int)) "layer sizes" [| 3; 4; 3; 2 |] (Mlp.layer_sizes m);
  Alcotest.(check int) "params" ((3 * 4) + 4 + (4 * 3) + 3 + (3 * 2) + 2)
    (Mlp.param_count m)

let test_mlp_rejects_bad_dims () =
  Alcotest.check_raises "zero hidden"
    (Invalid_argument "Mlp.create: non-positive hidden size") (fun () ->
      ignore
        (Mlp.create (Rng.create 1) ~input_dim:2 ~hidden:[| 0 |] ~output_dim:2 ()))

let test_mlp_deterministic_init () =
  let a = small_mlp ~seed:7 () and b = small_mlp ~seed:7 () in
  let x = [| 0.5; -0.2; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "same outputs" (Mlp.logits a x)
    (Mlp.logits b x)

let test_mlp_proba_is_distribution () =
  let m = small_mlp () in
  let p = Mlp.predict_proba m [| 1.; 2.; 3. |] in
  feq6 "sums to 1" 1. (Array.fold_left ( +. ) 0. p);
  Array.iter (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0. && v <= 1.)) p

let test_mlp_predict_argmax () =
  let m = small_mlp () in
  let x = [| 0.1; 0.2; 0.3 |] in
  let p = Mlp.predict_proba m x in
  Alcotest.(check int) "argmax" (Homunculus_util.Stats.argmax p) (Mlp.predict m x)

let test_mlp_copy_independent () =
  let a = small_mlp () in
  let b = Mlp.copy a in
  let params = Mlp.parameter_buffers b in
  params.(0).(0) <- params.(0).(0) +. 10.;
  let x = [| 1.; 1.; 1. |] in
  Alcotest.(check bool) "outputs diverge" true (Mlp.logits a x <> Mlp.logits b x)

(* The critical correctness test: backprop gradients match finite
   differences on every parameter of a small network. *)
let test_gradient_check () =
  let m =
    Mlp.create (Rng.create 3) ~input_dim:2 ~hidden:[| 3 |] ~output_dim:2
      ~hidden_act:Activation.Tanh ()
  in
  let x = [| 0.7; -1.2 |] and target = [| 0.; 1. |] in
  Mlp.zero_grads m;
  let _ = Mlp.train_sample m ~x ~target in
  let params = Mlp.parameter_buffers m in
  let grads = Mlp.gradient_buffers m in
  let h = 1e-5 in
  Array.iteri
    (fun b buf ->
      Array.iteri
        (fun i _ ->
          let orig = buf.(i) in
          buf.(i) <- orig +. h;
          let lp =
            Loss.value (Mlp.loss m) ~logits:(Mlp.logits m x) ~target
          in
          buf.(i) <- orig -. h;
          let lm =
            Loss.value (Mlp.loss m) ~logits:(Mlp.logits m x) ~target
          in
          buf.(i) <- orig;
          let fd = (lp -. lm) /. (2. *. h) in
          Alcotest.(check (float 1e-4))
            (Printf.sprintf "buffer %d param %d" b i)
            fd
            grads.(b).(i))
        buf)
    params

let test_gradient_accumulates () =
  let m = small_mlp () in
  let x = [| 1.; 0.; -1. |] and target = [| 1.; 0. |] in
  Mlp.zero_grads m;
  let _ = Mlp.train_sample m ~x ~target in
  let g1 = Array.map Array.copy (Mlp.gradient_buffers m) in
  let _ = Mlp.train_sample m ~x ~target in
  let g2 = Mlp.gradient_buffers m in
  Array.iteri
    (fun b buf ->
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-9)) "doubled" (2. *. g1.(b).(i)) v)
        buf)
    g2

let test_scale_grads () =
  let m = small_mlp () in
  Mlp.zero_grads m;
  let _ = Mlp.train_sample m ~x:[| 1.; 1.; 1. |] ~target:[| 1.; 0. |] in
  let before = Array.map Array.copy (Mlp.gradient_buffers m) in
  Mlp.scale_grads m 0.5;
  Array.iteri
    (fun b buf ->
      Array.iteri
        (fun i v -> Alcotest.(check (float 1e-12)) "halved" (0.5 *. before.(b).(i)) v)
        buf)
    (Mlp.gradient_buffers m)

(* [predict_into] on one batch-sized workspace equals [predict_all] for
   every batch length and every activation, including the second-pass
   Tanh/Sigmoid arm, which must stop at the live rows. *)
let test_predict_into_matches_predict_all () =
  let batch = 8 in
  Array.iter
    (fun act ->
      let rng = Rng.create 5 in
      let m =
        Mlp.create rng ~input_dim:5 ~hidden:[| 9; 4 |] ~output_dim:3
          ~hidden_act:act ()
      in
      let ws = Mlp.make_workspace m ~batch in
      let src =
        Array.init batch (fun _ ->
            Array.init 5 (fun _ -> Rng.uniform rng (-3.) 3.))
      in
      let dst = Array.make batch (-1) in
      for n = batch downto 0 do
        Array.fill dst 0 batch (-1);
        Mlp.predict_into m ws ~src ~n ~dst;
        Alcotest.(check (array int))
          (Printf.sprintf "%s n=%d" (Activation.name act) n)
          (Mlp.predict_all m (Array.sub src 0 n))
          (Array.sub dst 0 n);
        Alcotest.(check bool) "rows past n untouched" true
          (Array.for_all (( = ) (-1)) (Array.sub dst n (batch - n)))
      done)
    Activation.all

(* [predict_all_into] scores a split longer than its workspace window by
   window, last window short, and equals [predict_all] on the whole split
   for every workspace batch, including one longer than the split. *)
let test_predict_all_into_matches_predict_all () =
  Array.iter
    (fun act ->
      let rng = Rng.create 6 in
      let m =
        Mlp.create rng ~input_dim:5 ~hidden:[| 9; 4 |] ~output_dim:3
          ~hidden_act:act ()
      in
      let src =
        Array.init 23 (fun _ -> Array.init 5 (fun _ -> Rng.uniform rng (-3.) 3.))
      in
      List.iter
        (fun batch ->
          let dst = Array.make 23 (-1) in
          Mlp.predict_all_into m (Mlp.make_workspace m ~batch) ~src ~dst;
          Alcotest.(check (array int))
            (Printf.sprintf "%s batch=%d" (Activation.name act) batch)
            (Mlp.predict_all m src) dst)
        [ 1; 4; 8; 23; 32 ])
    Activation.all;
  let m = Mlp.create (Rng.create 7) ~input_dim:2 ~hidden:[| 3 |] ~output_dim:2 () in
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Mlp.predict_all_into: |src| <> |dst|") (fun () ->
      Mlp.predict_all_into m (Mlp.make_workspace m ~batch:2)
        ~src:[| [| 0.; 0. |] |] ~dst:[||])

let test_predict_into_rejects () =
  let m = small_mlp () in
  let ws = Mlp.make_workspace m ~batch:4 in
  let src = Array.make 5 [| 0.; 0.; 0. |] and dst = Array.make 5 0 in
  Alcotest.check_raises "n > batch"
    (Invalid_argument "Mlp.predict_into: n outside [0, workspace batch]")
    (fun () -> Mlp.predict_into m ws ~src ~n:5 ~dst);
  Alcotest.check_raises "short row"
    (Invalid_argument "Mlp.predict_into: sample dimension mismatch")
    (fun () -> Mlp.predict_into m ws ~src:[| [| 0. |] |] ~n:1 ~dst);
  (* A workspace sized for another hidden width is refused, not misread. *)
  let wider =
    Mlp.create (Rng.create 2) ~input_dim:3 ~hidden:[| 6; 3 |] ~output_dim:2 ()
  in
  Alcotest.(check bool) "foreign workspace" true
    (match Mlp.predict_into wider ws ~src ~n:1 ~dst with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "activation apply" `Quick test_activation_apply;
    Alcotest.test_case "activation derivative vs FD" `Quick
      test_activation_derivative_matches_fd;
    Alcotest.test_case "activation names" `Quick test_activation_names_roundtrip;
    Alcotest.test_case "activation unknown" `Quick test_activation_unknown_name;
    Alcotest.test_case "softmax CE value" `Quick test_softmax_ce_value;
    Alcotest.test_case "softmax CE gradient" `Quick test_softmax_ce_gradient;
    Alcotest.test_case "mse" `Quick test_mse;
    Alcotest.test_case "loss gradient vs FD" `Quick test_loss_gradient_matches_fd;
    Alcotest.test_case "mlp shapes" `Quick test_mlp_shapes;
    Alcotest.test_case "mlp rejects bad dims" `Quick test_mlp_rejects_bad_dims;
    Alcotest.test_case "mlp deterministic init" `Quick test_mlp_deterministic_init;
    Alcotest.test_case "proba is distribution" `Quick test_mlp_proba_is_distribution;
    Alcotest.test_case "predict = argmax" `Quick test_mlp_predict_argmax;
    Alcotest.test_case "copy independent" `Quick test_mlp_copy_independent;
    Alcotest.test_case "gradient check (FD)" `Quick test_gradient_check;
    Alcotest.test_case "gradients accumulate" `Quick test_gradient_accumulates;
    Alcotest.test_case "scale grads" `Quick test_scale_grads;
    Alcotest.test_case "predict_into = predict_all" `Quick
      test_predict_into_matches_predict_all;
    Alcotest.test_case "predict_into rejects" `Quick test_predict_into_rejects;
    Alcotest.test_case "predict_all_into = predict_all" `Quick
      test_predict_all_into_matches_predict_all;
  ]
