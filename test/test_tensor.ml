open Homunculus_tensor

let feq = Alcotest.(check (float 1e-9))
let farr = Alcotest.(check (array (float 1e-9)))

(* Vec *)

let test_vec_create () =
  farr "zeros" [| 0.; 0.; 0. |] (Vec.create 3)

let test_vec_dot () =
  feq "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_vec_dot_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot [| 1. |] [| 1.; 2. |]))

let test_vec_add_sub_mul () =
  farr "add" [| 5.; 7. |] (Vec.add [| 1.; 2. |] [| 4.; 5. |]);
  farr "sub" [| -3.; -3. |] (Vec.sub [| 1.; 2. |] [| 4.; 5. |]);
  farr "mul" [| 4.; 10. |] (Vec.mul [| 1.; 2. |] [| 4.; 5. |])

let test_vec_scale () = farr "scale" [| 2.; 4. |] (Vec.scale 2. [| 1.; 2. |])

let test_vec_axpy () =
  let y = [| 1.; 1. |] in
  Vec.axpy ~alpha:2. ~x:[| 3.; 4. |] ~y;
  farr "axpy" [| 7.; 9. |] y

let test_vec_add_in_place () =
  let dst = [| 1.; 2. |] in
  Vec.add_in_place dst [| 10.; 20. |];
  farr "add_in_place" [| 11.; 22. |] dst

let test_vec_norm_dist () =
  feq "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  feq "sq_dist" 25. (Vec.sq_dist [| 0.; 0. |] [| 3.; 4. |])

let test_vec_sum_argmax () =
  feq "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
  Alcotest.(check int) "argmax" 1 (Vec.argmax [| 1.; 5.; 3. |])

let test_vec_concat () =
  farr "concat" [| 1.; 2.; 3. |] (Vec.concat [| 1. |] [| 2.; 3. |])

(* Mat *)

let test_mat_init_get () =
  let m = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  feq "m(0,0)" 0. (Mat.get m 0 0);
  feq "m(1,2)" 12. (Mat.get m 1 2)

let test_mat_of_rows () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  feq "m(1,0)" 3. (Mat.get m 1 0)

let test_mat_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [| [| 1. |]; [| 1.; 2. |] |]))

let test_mat_set () =
  let m = Mat.create 2 2 in
  Mat.set m 0 1 9.;
  feq "set" 9. (Mat.get m 0 1)

let test_mat_row_col () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  farr "row" [| 3.; 4. |] (Mat.row m 1);
  farr "col" [| 2.; 4. |] (Mat.col m 1)

let test_mat_row_is_copy () =
  let m = Mat.of_rows [| [| 1.; 2. |] |] in
  let r = Mat.row m 0 in
  r.(0) <- 99.;
  feq "original intact" 1. (Mat.get m 0 0)

let test_mat_transpose () =
  let m = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose m in
  Alcotest.(check int) "rows" 3 t.Mat.rows;
  feq "t(2,1)" 6. (Mat.get t 2 1)

let test_mat_matvec () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  farr "matvec" [| 5.; 11. |] (Mat.matvec m [| 1.; 2. |])

let test_mat_matvec_t () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  (* transpose(m) * v *)
  farr "matvec_t" [| 7.; 10. |] (Mat.matvec_t m [| 1.; 2. |])

let test_mat_matvec_t_equals_transpose () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j)) in
  let v = [| 1.; -2.; 0.5 |] in
  farr "agree" (Mat.matvec (Mat.transpose m) v) (Mat.matvec_t m v)

let test_mat_matmul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.matmul a b in
  farr "row0" [| 19.; 22. |] (Mat.row c 0);
  farr "row1" [| 43.; 50. |] (Mat.row c 1)

let test_mat_matmul_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Mat.matmul: dimension mismatch")
    (fun () -> ignore (Mat.matmul (Mat.create 2 3) (Mat.create 2 3)))

let test_mat_add_scale () =
  let a = Mat.of_rows [| [| 1.; 2. |] |] in
  let b = Mat.of_rows [| [| 10.; 20. |] |] in
  farr "add" [| 11.; 22. |] (Mat.row (Mat.add a b) 0);
  farr "scale" [| 2.; 4. |] (Mat.row (Mat.scale 2. a) 0)

let test_mat_axpy () =
  let x = Mat.of_rows [| [| 1.; 2. |] |] in
  let y = Mat.of_rows [| [| 10.; 10. |] |] in
  Mat.axpy ~alpha:3. ~x ~y;
  farr "axpy" [| 13.; 16. |] (Mat.row y 0)

let test_mat_frobenius () =
  feq "frobenius" 5. (Mat.frobenius (Mat.of_rows [| [| 3.; 4. |] |]))

let test_mat_outer () =
  let o = Mat.outer [| 1.; 2. |] [| 3.; 4.; 5. |] in
  Alcotest.(check int) "shape" 2 o.Mat.rows;
  farr "row1" [| 6.; 8.; 10. |] (Mat.row o 1)

let test_mat_outer_accum () =
  let acc = Mat.create 2 2 in
  Mat.outer_accum ~alpha:2. ~u:[| 1.; 2. |] ~v:[| 3.; 4. |] ~acc;
  farr "row0" [| 6.; 8. |] (Mat.row acc 0);
  farr "row1" [| 12.; 16. |] (Mat.row acc 1);
  Mat.outer_accum ~alpha:1. ~u:[| 1.; 0. |] ~v:[| 1.; 1. |] ~acc;
  farr "accumulates" [| 7.; 9. |] (Mat.row acc 0)

let test_mat_copy_independent () =
  let a = Mat.create 1 1 in
  let b = Mat.copy a in
  Mat.set b 0 0 5.;
  feq "original" 0. (Mat.get a 0 0)

let test_mat_inplace_ops () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Mat.add_inplace m (Mat.of_rows [| [| 10.; 10. |]; [| 10.; 10. |] |]);
  farr "add_inplace" [| 11.; 12. |] (Mat.row m 0);
  Mat.scale_inplace 2. m;
  farr "scale_inplace" [| 22.; 24. |] (Mat.row m 0);
  Mat.map_inplace (fun v -> v -. 1.) m;
  farr "map_inplace" [| 21.; 23. |] (Mat.row m 0);
  Mat.add_row_inplace m [| 1.; -1. |];
  farr "add_row row0" [| 22.; 22. |] (Mat.row m 0);
  farr "add_row row1" [| 26.; 26. |] (Mat.row m 1)

let test_mat_add_row_inplace_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Mat.add_row_inplace: dimension mismatch") (fun () ->
      Mat.add_row_inplace (Mat.create 2 3) [| 1.; 2. |])

let test_mat_matmul_nt () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  (* a * transpose(b) *)
  let c = Mat.matmul_nt a b in
  farr "row0" [| 17.; 23. |] (Mat.row c 0);
  farr "row1" [| 39.; 53. |] (Mat.row c 1);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Mat.matmul_nt: dimension mismatch") (fun () ->
      ignore (Mat.matmul_nt (Mat.create 2 3) (Mat.create 2 4)))

let test_mat_matmul_nt_into_rows () =
  (* [~rows] computes a prefix of the rows — bias and ReLU epilogue
     included — bit-identical to the full product, and leaves the later
     rows of [out] and of the [post] destination untouched. *)
  let rng = Homunculus_util.Rng.create 11 in
  let rand r c =
    Mat.init r c (fun _ _ -> Homunculus_util.Rng.uniform rng (-2.) 2.)
  in
  let a = rand 5 7 and b = rand 9 7 in
  let bias = Array.init 9 (fun _ -> Homunculus_util.Rng.uniform rng (-1.) 1.) in
  let full = Mat.create 5 9 and full_post = Mat.create 5 9 in
  Mat.matmul_nt_into ~bias ~post:(`Relu full_post) a b ~out:full;
  List.iter
    (fun rows ->
      let out = Mat.init 5 9 (fun _ _ -> 42.) in
      let post = Mat.init 5 9 (fun _ _ -> 43.) in
      Mat.matmul_nt_into ~rows ~bias ~post:(`Relu post) a b ~out;
      for i = 0 to 4 do
        for j = 0 to 8 do
          let want m sentinel = if i < rows then Mat.get m i j else sentinel in
          Alcotest.(check bool)
            (Printf.sprintf "rows=%d out (%d,%d)" rows i j)
            true
            (Mat.get out i j = want full 42.
            && Mat.get post i j = want full_post 43.)
        done
      done)
    [ 0; 1; 3; 5 ];
  Alcotest.check_raises "rows > a.rows"
    (Invalid_argument "Mat.matmul_nt_into: rows outside [0, a.rows]")
    (fun () -> Mat.matmul_nt_into ~rows:6 a b ~out:(Mat.create 5 9))

(* Reference ikj product: one accumulator per output cell, k ascending —
   the exact accumulation order both matmul paths promise to preserve. *)
let naive_matmul a b =
  let out = Mat.create a.Mat.rows b.Mat.cols in
  for i = 0 to a.Mat.rows - 1 do
    for j = 0 to b.Mat.cols - 1 do
      let acc = ref 0. in
      for k = 0 to a.Mat.cols - 1 do
        acc := !acc +. (Mat.get a i k *. Mat.get b k j)
      done;
      Mat.set out i j !acc
    done
  done;
  out

let random_mat rng r c =
  Mat.init r c (fun _ _ -> Homunculus_util.Rng.uniform rng (-2.) 2.)

let test_mat_matmul_blocked_matches_naive_exactly () =
  (* Shapes straddle the small/large dispatch threshold (16384 flops) so both
     the plain-ikj and the packed-blocked path are exercised; equality is
     exact, not approximate — the blocked kernel must preserve IEEE
     accumulation order. *)
  let rng = Homunculus_util.Rng.create 1234 in
  List.iter
    (fun (m, k, n) ->
      let a = random_mat rng m k and b = random_mat rng k n in
      let fast = Mat.matmul a b and slow = naive_matmul a b in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%dx%d bit-identical" m k n)
        true (fast = slow))
    [
      (1, 1, 1); (3, 5, 2); (17, 9, 13); (25, 25, 25);
      (* > threshold: packed/blocked path, including non-multiple-of-block
         edge tiles *) (40, 40, 40); (65, 70, 33); (130, 7, 19);
    ]

let prop_matvec_linear =
  QCheck.Test.make ~name:"matvec is linear" ~count:100
    QCheck.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (s, t) ->
      let m = Mat.init 3 3 (fun i j -> float_of_int (i + j)) in
      let u = [| 1.; 0.; 2. |] and v = [| 0.; 3.; 1. |] in
      let lhs =
        Mat.matvec m (Array.init 3 (fun i -> (s *. u.(i)) +. (t *. v.(i))))
      in
      let mu = Mat.matvec m u and mv = Mat.matvec m v in
      let rhs = Array.init 3 (fun i -> (s *. mu.(i)) +. (t *. mv.(i))) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) lhs rhs)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let m = Mat.init r c (fun i j -> float_of_int ((i * 31) + j)) in
      Mat.transpose (Mat.transpose m) = m)

let suite =
  [
    Alcotest.test_case "vec create" `Quick test_vec_create;
    Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec dot mismatch" `Quick test_vec_dot_mismatch;
    Alcotest.test_case "vec add/sub/mul" `Quick test_vec_add_sub_mul;
    Alcotest.test_case "vec scale" `Quick test_vec_scale;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec add_in_place" `Quick test_vec_add_in_place;
    Alcotest.test_case "vec norm/dist" `Quick test_vec_norm_dist;
    Alcotest.test_case "vec sum/argmax" `Quick test_vec_sum_argmax;
    Alcotest.test_case "vec concat" `Quick test_vec_concat;
    Alcotest.test_case "mat init/get" `Quick test_mat_init_get;
    Alcotest.test_case "mat of_rows" `Quick test_mat_of_rows;
    Alcotest.test_case "mat of_rows ragged" `Quick test_mat_of_rows_ragged;
    Alcotest.test_case "mat set" `Quick test_mat_set;
    Alcotest.test_case "mat row/col" `Quick test_mat_row_col;
    Alcotest.test_case "mat row is copy" `Quick test_mat_row_is_copy;
    Alcotest.test_case "mat transpose" `Quick test_mat_transpose;
    Alcotest.test_case "mat matvec" `Quick test_mat_matvec;
    Alcotest.test_case "mat matvec_t" `Quick test_mat_matvec_t;
    Alcotest.test_case "matvec_t = transpose matvec" `Quick
      test_mat_matvec_t_equals_transpose;
    Alcotest.test_case "mat matmul" `Quick test_mat_matmul;
    Alcotest.test_case "mat matmul mismatch" `Quick test_mat_matmul_mismatch;
    Alcotest.test_case "mat add/scale" `Quick test_mat_add_scale;
    Alcotest.test_case "mat axpy" `Quick test_mat_axpy;
    Alcotest.test_case "mat frobenius" `Quick test_mat_frobenius;
    Alcotest.test_case "mat outer" `Quick test_mat_outer;
    Alcotest.test_case "mat outer_accum" `Quick test_mat_outer_accum;
    Alcotest.test_case "mat copy independent" `Quick test_mat_copy_independent;
    Alcotest.test_case "mat in-place ops" `Quick test_mat_inplace_ops;
    Alcotest.test_case "mat add_row_inplace mismatch" `Quick
      test_mat_add_row_inplace_mismatch;
    Alcotest.test_case "mat matmul_nt" `Quick test_mat_matmul_nt;
    Alcotest.test_case "mat matmul_nt_into rows prefix" `Quick
      test_mat_matmul_nt_into_rows;
    Alcotest.test_case "mat matmul blocked = naive" `Quick
      test_mat_matmul_blocked_matches_naive_exactly;
    QCheck_alcotest.to_alcotest prop_matvec_linear;
    QCheck_alcotest.to_alcotest prop_transpose_involution;
  ]
