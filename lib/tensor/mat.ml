type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let of_rows rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Mat.of_rows: empty input";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
    rows_arr;
  init rows cols (fun i j -> rows_arr.(i).(j))

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> get m i j)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matvec m v =
  if Array.length v <> m.cols then invalid_arg "Mat.matvec: dimension mismatch";
  let out = Array.make m.rows 0. in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0. in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. v.(j))
    done;
    out.(i) <- !acc
  done;
  out

let matvec_t m v =
  if Array.length v <> m.rows then invalid_arg "Mat.matvec_t: dimension mismatch";
  let out = Array.make m.cols 0. in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let vi = v.(i) in
    if vi <> 0. then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.(base + j) *. vi)
      done
  done;
  out

(* Both products accumulate out(i,j) over k in ascending order with a single
   accumulator, so the blocked/packed path below is bit-identical to the
   textbook triple loop — the equivalence test checks exact equality. *)

(* [a] is m-by-k row-major, [bt] is n-by-k row-major (i.e. B already
   transposed): both operands stream contiguously in the inner dot product.
   Blocking keeps a tile of bt rows hot in cache while the i-loop sweeps. The
   dot is written inline (a call per output element costs a boxed float
   return) with unsafe accesses — bounds come from the callers' shape checks.
   The 4-way unrolling keeps a SINGLE accumulator fed in ascending index
   order: it reduces loop overhead without reassociating the sum, so results
   stay bit-identical to the naive triple loop. *)
let matmul_packed ?(bias = [||]) ?post ~rows a bt out =
  let kdim = a.cols and n = bt.rows in
  let ad = a.data and bd = bt.data and od = out.data in
  let hb = Array.length bias > 0 in
  (* Optional fused epilogue: the elementwise map runs on the finished
     accumulator while it is still in a register, replacing a second sweep
     that would re-load every output element. [pmode] is a plain int so the
     per-group dispatch below is a predicted two-way branch, not a variant
     match in the hot loop. *)
  let pmode, pd =
    match post with
    | None -> (0, od)
    | Some (`Copy dst) -> (1, dst.data)
    | Some (`Relu dst) -> (2, dst.data)
  in
  begin
    (* 8-wide microkernel: eight output columns share one sweep of the [a]
       row, so each iteration issues one a-load plus eight b-loads for eight
       multiply-adds — the shared load amortizes to ~1.1 loads per FMA, and
       the eight independent accumulator chains hide FP-add latency. Each
       accumulator is still a single register fed in ascending k —
       bit-identical per element. *)
    for i = 0 to rows - 1 do
      let abase = i * kdim in
      let obase = i * n in
      let j = ref 0 in
      while !j + 7 < n do
        let j0 = !j in
        let b0 = j0 * kdim in
        let b1 = b0 + kdim in
        let b2 = b1 + kdim in
        let b3 = b2 + kdim in
        let b4 = b3 + kdim in
        let b5 = b4 + kdim in
        let b6 = b5 + kdim in
        let b7 = b6 + kdim in
        let acc0 = ref 0.
        and acc1 = ref 0.
        and acc2 = ref 0.
        and acc3 = ref 0.
        and acc4 = ref 0.
        and acc5 = ref 0.
        and acc6 = ref 0.
        and acc7 = ref 0. in
        for p = 0 to kdim - 1 do
          let av = Array.unsafe_get ad (abase + p) in
          acc0 := !acc0 +. (av *. Array.unsafe_get bd (b0 + p));
          acc1 := !acc1 +. (av *. Array.unsafe_get bd (b1 + p));
          acc2 := !acc2 +. (av *. Array.unsafe_get bd (b2 + p));
          acc3 := !acc3 +. (av *. Array.unsafe_get bd (b3 + p));
          acc4 := !acc4 +. (av *. Array.unsafe_get bd (b4 + p));
          acc5 := !acc5 +. (av *. Array.unsafe_get bd (b5 + p));
          acc6 := !acc6 +. (av *. Array.unsafe_get bd (b6 + p));
          acc7 := !acc7 +. (av *. Array.unsafe_get bd (b7 + p))
        done;
        if hb then begin
          (* The bias joins after the whole dot, exactly where the per-sample
             path's [Vec.add_in_place] adds it. *)
          acc0 := !acc0 +. Array.unsafe_get bias j0;
          acc1 := !acc1 +. Array.unsafe_get bias (j0 + 1);
          acc2 := !acc2 +. Array.unsafe_get bias (j0 + 2);
          acc3 := !acc3 +. Array.unsafe_get bias (j0 + 3);
          acc4 := !acc4 +. Array.unsafe_get bias (j0 + 4);
          acc5 := !acc5 +. Array.unsafe_get bias (j0 + 5);
          acc6 := !acc6 +. Array.unsafe_get bias (j0 + 6);
          acc7 := !acc7 +. Array.unsafe_get bias (j0 + 7)
        end;
        Array.unsafe_set od (obase + j0) !acc0;
        Array.unsafe_set od (obase + j0 + 1) !acc1;
        Array.unsafe_set od (obase + j0 + 2) !acc2;
        Array.unsafe_set od (obase + j0 + 3) !acc3;
        Array.unsafe_set od (obase + j0 + 4) !acc4;
        Array.unsafe_set od (obase + j0 + 5) !acc5;
        Array.unsafe_set od (obase + j0 + 6) !acc6;
        Array.unsafe_set od (obase + j0 + 7) !acc7;
        if pmode > 0 then
          if pmode = 1 then begin
            Array.unsafe_set pd (obase + j0) !acc0;
            Array.unsafe_set pd (obase + j0 + 1) !acc1;
            Array.unsafe_set pd (obase + j0 + 2) !acc2;
            Array.unsafe_set pd (obase + j0 + 3) !acc3;
            Array.unsafe_set pd (obase + j0 + 4) !acc4;
            Array.unsafe_set pd (obase + j0 + 5) !acc5;
            Array.unsafe_set pd (obase + j0 + 6) !acc6;
            Array.unsafe_set pd (obase + j0 + 7) !acc7
          end
          else begin
            let v0 = !acc0 and v1 = !acc1 and v2 = !acc2 and v3 = !acc3 in
            let v4 = !acc4 and v5 = !acc5 and v6 = !acc6 and v7 = !acc7 in
            Array.unsafe_set pd (obase + j0) (if v0 > 0. then v0 else 0.);
            Array.unsafe_set pd (obase + j0 + 1) (if v1 > 0. then v1 else 0.);
            Array.unsafe_set pd (obase + j0 + 2) (if v2 > 0. then v2 else 0.);
            Array.unsafe_set pd (obase + j0 + 3) (if v3 > 0. then v3 else 0.);
            Array.unsafe_set pd (obase + j0 + 4) (if v4 > 0. then v4 else 0.);
            Array.unsafe_set pd (obase + j0 + 5) (if v5 > 0. then v5 else 0.);
            Array.unsafe_set pd (obase + j0 + 6) (if v6 > 0. then v6 else 0.);
            Array.unsafe_set pd (obase + j0 + 7) (if v7 > 0. then v7 else 0.)
          end;
        j := j0 + 8
      done;
      (* Remainder columns, two dots at a time where possible. *)
      while !j + 1 < n do
        let j0 = !j in
        let b0 = j0 * kdim in
        let b1 = b0 + kdim in
        let acc0 = ref 0. and acc1 = ref 0. in
        for p = 0 to kdim - 1 do
          let av = Array.unsafe_get ad (abase + p) in
          acc0 := !acc0 +. (av *. Array.unsafe_get bd (b0 + p));
          acc1 := !acc1 +. (av *. Array.unsafe_get bd (b1 + p))
        done;
        if hb then begin
          acc0 := !acc0 +. Array.unsafe_get bias j0;
          acc1 := !acc1 +. Array.unsafe_get bias (j0 + 1)
        end;
        Array.unsafe_set od (obase + j0) !acc0;
        Array.unsafe_set od (obase + j0 + 1) !acc1;
        if pmode > 0 then
          if pmode = 1 then begin
            Array.unsafe_set pd (obase + j0) !acc0;
            Array.unsafe_set pd (obase + j0 + 1) !acc1
          end
          else begin
            let v0 = !acc0 and v1 = !acc1 in
            Array.unsafe_set pd (obase + j0) (if v0 > 0. then v0 else 0.);
            Array.unsafe_set pd (obase + j0 + 1) (if v1 > 0. then v1 else 0.)
          end;
        j := j0 + 2
      done;
      if !j < n then begin
        let bbase = !j * kdim in
        let acc = ref 0. in
        for p = 0 to kdim - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get ad (abase + p)
               *. Array.unsafe_get bd (bbase + p))
        done;
        if hb then acc := !acc +. Array.unsafe_get bias !j;
        Array.unsafe_set od (obase + !j) !acc;
        if pmode > 0 then begin
          let v = !acc in
          Array.unsafe_set pd (obase + !j)
            (if pmode = 1 then v else if v > 0. then v else 0.)
        end
      end
    done
  end

let matmul_nt_into ?rows ?bias ?post a b ~out =
  if a.cols <> b.cols then invalid_arg "Mat.matmul_nt_into: dimension mismatch";
  if out.rows <> a.rows || out.cols <> b.rows then
    invalid_arg "Mat.matmul_nt_into: output shape mismatch";
  let rows = match rows with None -> a.rows | Some r -> r in
  if rows < 0 || rows > a.rows then
    invalid_arg "Mat.matmul_nt_into: rows outside [0, a.rows]";
  (match bias with
  | Some v when Array.length v <> b.rows ->
      invalid_arg "Mat.matmul_nt_into: bias length mismatch"
  | Some _ | None -> ());
  (match post with
  | Some (`Copy d | `Relu d) when d.rows <> out.rows || d.cols <> out.cols ->
      invalid_arg "Mat.matmul_nt_into: post destination shape mismatch"
  | Some _ | None -> ());
  matmul_packed ?bias ?post ~rows a b out

let matmul_nt a b =
  if a.cols <> b.cols then invalid_arg "Mat.matmul_nt: dimension mismatch";
  let out = create a.rows b.rows in
  matmul_packed ~rows:a.rows a b out;
  out

let transpose_into m ~out =
  if out.rows <> m.cols || out.cols <> m.rows then
    invalid_arg "Mat.transpose_into: shape mismatch";
  let md = m.data and od = out.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set od ((j * out.cols) + i) (Array.unsafe_get md (base + j))
    done
  done

(* acc <- acc + a^T b, where [a] is s-by-m and [b] is s-by-n (both row-major
   with the shared dimension as rows): the shape of a batched weight-gradient
   update (delta^T X). The loop nest is sample-major and skips rows of [a]
   that are exactly zero, so per element of [acc] the additions happen in the
   same order (and with the same skip rule) as folding [outer_accum] over the
   samples one at a time — the batched training path is bit-identical to the
   per-sample reference because of this. *)
let gemm_tn_accum ~a ~b ~acc =
  if a.rows <> b.rows then invalid_arg "Mat.gemm_tn_accum: row mismatch";
  if acc.rows <> a.cols || acc.cols <> b.cols then
    invalid_arg "Mat.gemm_tn_accum: accumulator shape mismatch";
  let m = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and accd = acc.data in
  for s = 0 to a.rows - 1 do
    let abase = s * m and bbase = s * n in
    for i = 0 to m - 1 do
      let c = Array.unsafe_get ad (abase + i) in
      if c <> 0. then begin
        let obase = i * n in
        (* 4-way unroll over independent output elements. *)
        let j = ref 0 in
        while !j + 3 < n do
          let j0 = !j in
          Array.unsafe_set accd (obase + j0)
            (Array.unsafe_get accd (obase + j0)
            +. (c *. Array.unsafe_get bd (bbase + j0)));
          Array.unsafe_set accd (obase + j0 + 1)
            (Array.unsafe_get accd (obase + j0 + 1)
            +. (c *. Array.unsafe_get bd (bbase + j0 + 1)));
          Array.unsafe_set accd (obase + j0 + 2)
            (Array.unsafe_get accd (obase + j0 + 2)
            +. (c *. Array.unsafe_get bd (bbase + j0 + 2)));
          Array.unsafe_set accd (obase + j0 + 3)
            (Array.unsafe_get accd (obase + j0 + 3)
            +. (c *. Array.unsafe_get bd (bbase + j0 + 3)));
          j := j0 + 4
        done;
        while !j < n do
          Array.unsafe_set accd (obase + !j)
            (Array.unsafe_get accd (obase + !j)
            +. (c *. Array.unsafe_get bd (bbase + !j)));
          incr j
        done
      end
    done
  done

(* out <- a b, saxpy-style with no skipping: per element of [out] the sum
   runs over ascending rows of [b] with a single (memory) accumulator —
   exactly [matvec]'s accumulation order once [b] is a packed W^T. Memory
   accumulators across a row of [out] are independent, so unlike the dot
   form this is not serialized on FP-add latency. Both streams contiguous. *)
let matmul_into a b ~out =
  if a.cols <> b.rows then invalid_arg "Mat.matmul_into: dimension mismatch";
  if out.rows <> a.rows || out.cols <> b.cols then
    invalid_arg "Mat.matmul_into: output shape mismatch";
  let k = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and od = out.data in
  for s = 0 to a.rows - 1 do
    let abase = s * k and obase = s * n in
    if k = 0 then Array.fill od obase n 0.
    else begin
      (* The k=0 pass writes [0. +. c*b] directly — the exact value the
         fill-then-accumulate form would produce (including signed zeros) —
         saving a full sweep over the output row. Each later pass is a short
         load-fma-store chain per element, so independent elements pipeline
         instead of serializing on FP-add latency. *)
      let c = Array.unsafe_get ad abase in
      for j = 0 to n - 1 do
        Array.unsafe_set od (obase + j) (0. +. (c *. Array.unsafe_get bd j))
      done;
      for i = 1 to k - 1 do
        let c = Array.unsafe_get ad (abase + i) in
        let bbase = i * n in
        for j = 0 to n - 1 do
          Array.unsafe_set od (obase + j)
            (Array.unsafe_get od (obase + j)
            +. (c *. Array.unsafe_get bd (bbase + j)))
        done
      done
    end
  done

(* out <- a b with [b] row-major and untransposed: per element of [out] the
   sum runs over ascending rows of [b] with a single (memory) accumulator and
   skips rows where the [a] coefficient is exactly zero — row [s] of [out] is
   the exact op sequence of [matvec_t b (row a s)], which is what makes the
   batched dL/dx bit-identical to the per-sample path without packing W^T
   every step. The saxpy inner loop streams both [b] and [out] contiguously. *)
let matmul_nn_into a b ~out =
  if a.cols <> b.rows then invalid_arg "Mat.matmul_nn_into: dimension mismatch";
  if out.rows <> a.rows || out.cols <> b.cols then
    invalid_arg "Mat.matmul_nn_into: output shape mismatch";
  let k = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and od = out.data in
  for s = 0 to a.rows - 1 do
    let abase = s * k and obase = s * n in
    (* The first surviving coefficient writes [0. +. c*b] directly — the
       exact value fill-then-accumulate would produce (signed zeros
       included) — saving the fill sweep whenever any coefficient is live. *)
    let inited = ref false in
    for i = 0 to k - 1 do
      let c = Array.unsafe_get ad (abase + i) in
      if c <> 0. then begin
        if not !inited then begin
          inited := true;
          let bbase = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set od (obase + j)
              (0. +. (c *. Array.unsafe_get bd (bbase + j)))
          done
        end
        else begin
          let bbase = i * n in
          (* 4-way unroll over independent output elements. *)
          let j = ref 0 in
          while !j + 3 < n do
            let j0 = !j in
            Array.unsafe_set od (obase + j0)
              (Array.unsafe_get od (obase + j0)
              +. (c *. Array.unsafe_get bd (bbase + j0)));
            Array.unsafe_set od (obase + j0 + 1)
              (Array.unsafe_get od (obase + j0 + 1)
              +. (c *. Array.unsafe_get bd (bbase + j0 + 1)));
            Array.unsafe_set od (obase + j0 + 2)
              (Array.unsafe_get od (obase + j0 + 2)
              +. (c *. Array.unsafe_get bd (bbase + j0 + 2)));
            Array.unsafe_set od (obase + j0 + 3)
              (Array.unsafe_get od (obase + j0 + 3)
              +. (c *. Array.unsafe_get bd (bbase + j0 + 3)));
            j := j0 + 4
          done;
          while !j < n do
            Array.unsafe_set od (obase + !j)
              (Array.unsafe_get od (obase + !j)
              +. (c *. Array.unsafe_get bd (bbase + !j)));
            incr j
          done
        end
      end
    done;
    if not !inited then Array.fill od obase n 0.
  done

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: dimension mismatch";
  let out = create a.rows b.cols in
  if a.rows * a.cols * b.cols <= 16384 then
    (* Small product: the i-k-j loop is already cache-friendly and skipping
       the packing transpose wins. *)
    for i = 0 to a.rows - 1 do
      let obase = i * b.cols in
      for k = 0 to a.cols - 1 do
        let aik = a.data.((i * a.cols) + k) in
        let bbase = k * b.cols in
        for j = 0 to b.cols - 1 do
          out.data.(obase + j) <- out.data.(obase + j) +. (aik *. b.data.(bbase + j))
        done
      done
    done
  else matmul_packed ~rows:a.rows a (transpose b) out;
  out

let check_same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": shape mismatch")

(* The element-wise operations sit on the MLP training hot path; explicit
   loops avoid one closure invocation per element. *)

let add a b =
  check_same_shape "Mat.add" a b;
  let n = Array.length a.data in
  let data = Array.make n 0. in
  for i = 0 to n - 1 do
    data.(i) <- a.data.(i) +. b.data.(i)
  done;
  { a with data }

let add_inplace a b =
  check_same_shape "Mat.add_inplace" a b;
  for i = 0 to Array.length a.data - 1 do
    a.data.(i) <- a.data.(i) +. b.data.(i)
  done

let scale alpha m =
  let n = Array.length m.data in
  let data = Array.make n 0. in
  for i = 0 to n - 1 do
    data.(i) <- alpha *. m.data.(i)
  done;
  { m with data }

let scale_inplace alpha m =
  for i = 0 to Array.length m.data - 1 do
    m.data.(i) <- alpha *. m.data.(i)
  done

let axpy ~alpha ~x ~y =
  check_same_shape "Mat.axpy" x y;
  for i = 0 to Array.length x.data - 1 do
    y.data.(i) <- (alpha *. x.data.(i)) +. y.data.(i)
  done

let map f m =
  let n = Array.length m.data in
  let data = Array.make n 0. in
  for i = 0 to n - 1 do
    data.(i) <- f m.data.(i)
  done;
  { m with data }

let map_inplace f m =
  for i = 0 to Array.length m.data - 1 do
    m.data.(i) <- f m.data.(i)
  done

let add_row_inplace m v =
  if Array.length v <> m.cols then
    invalid_arg "Mat.add_row_inplace: dimension mismatch";
  let md = m.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set md (base + j)
        (Array.unsafe_get md (base + j) +. Array.unsafe_get v j)
    done
  done

let frobenius m = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0. m.data)

let outer u v =
  init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let outer_accum ~alpha ~u ~v ~acc =
  if Array.length u <> acc.rows || Array.length v <> acc.cols then
    invalid_arg "Mat.outer_accum: shape mismatch";
  for i = 0 to acc.rows - 1 do
    let base = i * acc.cols in
    let s = alpha *. u.(i) in
    if s <> 0. then
      for j = 0 to acc.cols - 1 do
        acc.data.(base + j) <- acc.data.(base + j) +. (s *. v.(j))
      done
  done

let n_elements m = m.rows * m.cols

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%8.4f" (get m i j)
    done;
    Format.fprintf fmt "]@,"
  done;
  Format.fprintf fmt "@]"
