open Homunculus_tensor
module Rng = Homunculus_util.Rng

type t = {
  w : Mat.t;
  b : Vec.t;
  act : Activation.t;
  grad_w : Mat.t;
  grad_b : Vec.t;
}

let create rng ~n_in ~n_out ~act =
  let scale = sqrt (2. /. float_of_int n_in) in
  {
    w = Mat.init n_out n_in (fun _ _ -> Rng.gaussian rng ~sigma:scale ());
    b = Vec.create n_out;
    act;
    grad_w = Mat.create n_out n_in;
    grad_b = Vec.create n_out;
  }

let of_params ~w ~b ~act =
  if Vec.dim b <> w.Mat.rows then
    invalid_arg "Layer.of_params: bias dimension <> weight rows";
  {
    w;
    b;
    act;
    grad_w = Mat.create w.Mat.rows w.Mat.cols;
    grad_b = Vec.create w.Mat.rows;
  }

let n_in t = t.w.Mat.cols
let n_out t = t.w.Mat.rows
let param_count t = Mat.n_elements t.w + Vec.dim t.b

let forward t x =
  let z = Mat.matvec t.w x in
  Vec.add_in_place z t.b;
  let a = Activation.apply_vec t.act z in
  (z, a)

let backward t ~x ~z ~a ~upstream =
  (* delta = dL/dz = upstream (dL/da) * act'(z). *)
  let delta =
    Array.init (Vec.dim upstream) (fun i ->
        upstream.(i) *. Activation.derivative t.act ~z:z.(i) ~a:a.(i))
  in
  Mat.outer_accum ~alpha:1. ~u:delta ~v:x ~acc:t.grad_w;
  Vec.add_in_place t.grad_b delta;
  Mat.matvec_t t.w delta

(* Batched fast path: one GEMM per layer over a whole mini-batch, with every
   intermediate living in a preallocated workspace so the steady-state training
   loop allocates nothing per step. Reduction-order contract: each workspace
   kernel accumulates per output element in the same ascending-index order as
   the per-sample path ([matvec] / [outer_accum] / [matvec_t]), so the batched
   engine is bit-identical to folding [forward]/[backward] over the batch. *)

type workspace = {
  z : Mat.t;  (* batch x n_out: pre-activations *)
  a : Mat.t;  (* batch x n_out: activations *)
  delta : Mat.t;  (* batch x n_out: dL/dz *)
  dx : Mat.t;  (* batch x n_in: dL/dx, the upstream for the layer below *)
  nz : int array;  (* batch x n_out: per-row compact nonzero-delta indices *)
  nz_cnt : int array;  (* per-row count of entries in [nz] *)
}

let make_workspace t ~batch =
  if batch <= 0 then invalid_arg "Layer.make_workspace: batch <= 0";
  {
    z = Mat.create batch (n_out t);
    a = Mat.create batch (n_out t);
    delta = Mat.create batch (n_out t);
    dx = Mat.create batch (n_in t);
    nz = Array.make (batch * n_out t) 0;
    nz_cnt = Array.make batch 0;
  }

let forward_batch ?rows t ws ~x =
  (* z = x W^T + b, row s = [forward] of sample s. The GEMM epilogue adds
     the bias in-register — the same op order as [matvec] followed by
     [Vec.add_in_place] — and, for ReLU/linear layers, applies the
     activation into [ws.a] in the same epilogue, so [ws.z] holds the
     finished pre-activations and no separate sweep re-loads them. Each
     fused arm computes exactly [Activation.apply]. Only the first [rows]
     rows are computed (the kernel validates the count). *)
  (match t.act with
  | Activation.Relu ->
      Mat.matmul_nt_into ?rows ~bias:t.b ~post:(`Relu ws.a) x t.w ~out:ws.z
  | Activation.Linear ->
      Mat.matmul_nt_into ?rows ~bias:t.b ~post:(`Copy ws.a) x t.w ~out:ws.z
  | Activation.Tanh | Activation.Sigmoid ->
      Mat.matmul_nt_into ?rows ~bias:t.b x t.w ~out:ws.z;
      (* Transcendental activations stay a per-variant second pass (one
         dispatch per batch, not per element) over the computed rows. *)
      let zd = ws.z.Mat.data and ad = ws.a.Mat.data in
      let n =
        (match rows with Some r -> r | None -> x.Mat.rows) * ws.z.Mat.cols
      in
      if t.act = Activation.Tanh then
        for i = 0 to n - 1 do
          Array.unsafe_set ad i (tanh (Array.unsafe_get zd i))
        done
      else
        for i = 0 to n - 1 do
          Array.unsafe_set ad i
            (Homunculus_util.Mathx.sigmoid (Array.unsafe_get zd i))
        done)

let backward_batch ?(need_dx = true) t ws ~x ~upstream =
  (* delta = upstream * act'(z), elementwise. *)
  let ud = upstream.Mat.data
  and zd = ws.z.Mat.data
  and ad = ws.a.Mat.data
  and dd = ws.delta.Mat.data in
  let rows = ws.delta.Mat.rows and m = ws.delta.Mat.cols in
  (* Per-variant loops computing exactly
     [upstream * Activation.derivative ~z ~a], with grad_b accumulated in the
     same sweep — sample-major, ascending index, exactly the order per-sample
     [Vec.add_in_place] feeds it. The ReLU arm also compacts, per row, the
     ascending indices where delta <> 0 — exactly the entries
     [Mat.outer_accum] / [Mat.matvec_t] would keep — so the gradient and dx
     sweeps below can stream branch-free over roughly half the work instead
     of re-testing (and mispredicting) every coefficient twice. *)
  let gb = t.grad_b in
  let compacted =
    match t.act with
    | Activation.Relu ->
        let nz = ws.nz and nz_cnt = ws.nz_cnt in
        for s = 0 to rows - 1 do
          let base = s * m in
          let cnt = ref 0 in
          for i = 0 to m - 1 do
            let u = Array.unsafe_get ud (base + i) in
            (* [u *. 0.] (not a literal [0.]) so signed zeros and NaN/inf
               upstreams propagate exactly as the per-sample
               [u *. derivative] does. *)
            let d =
              if Array.unsafe_get zd (base + i) > 0. then u else u *. 0.
            in
            Array.unsafe_set dd (base + i) d;
            Array.unsafe_set gb i (Array.unsafe_get gb i +. d);
            if d <> 0. then begin
              Array.unsafe_set nz (base + !cnt) i;
              incr cnt
            end
          done;
          Array.unsafe_set nz_cnt s !cnt
        done;
        true
    | Activation.Linear ->
        for s = 0 to rows - 1 do
          let base = s * m in
          for i = 0 to m - 1 do
            let u = Array.unsafe_get ud (base + i) in
            Array.unsafe_set dd (base + i) u;
            Array.unsafe_set gb i (Array.unsafe_get gb i +. u)
          done
        done;
        false
    | Activation.Tanh ->
        for s = 0 to rows - 1 do
          let base = s * m in
          for i = 0 to m - 1 do
            let a = Array.unsafe_get ad (base + i) in
            let d = Array.unsafe_get ud (base + i) *. (1. -. (a *. a)) in
            Array.unsafe_set dd (base + i) d;
            Array.unsafe_set gb i (Array.unsafe_get gb i +. d)
          done
        done;
        false
    | Activation.Sigmoid ->
        for s = 0 to rows - 1 do
          let base = s * m in
          for i = 0 to m - 1 do
            let a = Array.unsafe_get ad (base + i) in
            let d = Array.unsafe_get ud (base + i) *. (a *. (1. -. a)) in
            Array.unsafe_set dd (base + i) d;
            Array.unsafe_set gb i (Array.unsafe_get gb i +. d)
          done
        done;
        false
  in
  (* grad_w += delta^T x, sample-major — the exact op sequence of per-sample
     [outer_accum], including its skip-zero rule (the compact lists hold
     precisely the surviving entries, in the same ascending order). *)
  if compacted then begin
    let nz = ws.nz and nz_cnt = ws.nz_cnt in
    let gw = t.grad_w.Mat.data and xd = x.Mat.data in
    let nx = x.Mat.cols in
    for s = 0 to rows - 1 do
      let base = s * m and xbase = s * nx in
      for p = 0 to Array.unsafe_get nz_cnt s - 1 do
        let i = Array.unsafe_get nz (base + p) in
        let c = Array.unsafe_get dd (base + i) in
        let obase = i * nx in
        let j = ref 0 in
        while !j + 3 < nx do
          let j0 = !j in
          Array.unsafe_set gw (obase + j0)
            (Array.unsafe_get gw (obase + j0)
            +. (c *. Array.unsafe_get xd (xbase + j0)));
          Array.unsafe_set gw (obase + j0 + 1)
            (Array.unsafe_get gw (obase + j0 + 1)
            +. (c *. Array.unsafe_get xd (xbase + j0 + 1)));
          Array.unsafe_set gw (obase + j0 + 2)
            (Array.unsafe_get gw (obase + j0 + 2)
            +. (c *. Array.unsafe_get xd (xbase + j0 + 2)));
          Array.unsafe_set gw (obase + j0 + 3)
            (Array.unsafe_get gw (obase + j0 + 3)
            +. (c *. Array.unsafe_get xd (xbase + j0 + 3)));
          j := j0 + 4
        done;
        while !j < nx do
          Array.unsafe_set gw (obase + !j)
            (Array.unsafe_get gw (obase + !j)
            +. (c *. Array.unsafe_get xd (xbase + !j)));
          incr j
        done
      done
    done
  end
  else Mat.gemm_tn_accum ~a:ws.delta ~b:x ~acc:t.grad_w;
  (* dx = delta W, accumulated over ascending rows of W with [matvec_t]'s
     zero skip (the compact lists are exactly the rows it keeps). The bottom
     layer has no consumer for dx — parameters don't depend on it — so
     callers elide the whole GEMM there. *)
  if need_dx then begin
    if compacted then begin
      let nz = ws.nz and nz_cnt = ws.nz_cnt in
      let wd = t.w.Mat.data and dxd = ws.dx.Mat.data in
      let nin = ws.dx.Mat.cols in
      for s = 0 to rows - 1 do
        let base = s * m and obase = s * nin in
        let cnt = Array.unsafe_get nz_cnt s in
        (* The first live entry writes [0. +. c*w] directly — the exact
           value fill-then-accumulate would produce (signed zeros included)
           — saving the fill sweep and the first pass's loads. *)
        if cnt = 0 then Array.fill dxd obase nin 0.
        else begin
          let i0 = Array.unsafe_get nz base in
          let c = Array.unsafe_get dd (base + i0) in
          let wbase = i0 * nin in
          for j = 0 to nin - 1 do
            Array.unsafe_set dxd (obase + j)
              (0. +. (c *. Array.unsafe_get wd (wbase + j)))
          done
        end;
        for p = 1 to cnt - 1 do
          let i = Array.unsafe_get nz (base + p) in
          let c = Array.unsafe_get dd (base + i) in
          let wbase = i * nin in
          let j = ref 0 in
          while !j + 3 < nin do
            let j0 = !j in
            Array.unsafe_set dxd (obase + j0)
              (Array.unsafe_get dxd (obase + j0)
              +. (c *. Array.unsafe_get wd (wbase + j0)));
            Array.unsafe_set dxd (obase + j0 + 1)
              (Array.unsafe_get dxd (obase + j0 + 1)
              +. (c *. Array.unsafe_get wd (wbase + j0 + 1)));
            Array.unsafe_set dxd (obase + j0 + 2)
              (Array.unsafe_get dxd (obase + j0 + 2)
              +. (c *. Array.unsafe_get wd (wbase + j0 + 2)));
            Array.unsafe_set dxd (obase + j0 + 3)
              (Array.unsafe_get dxd (obase + j0 + 3)
              +. (c *. Array.unsafe_get wd (wbase + j0 + 3)));
            j := j0 + 4
          done;
          while !j < nin do
            Array.unsafe_set dxd (obase + !j)
              (Array.unsafe_get dxd (obase + !j)
              +. (c *. Array.unsafe_get wd (wbase + !j)));
            incr j
          done
        done
      done
    end
    else Mat.matmul_nn_into ws.delta t.w ~out:ws.dx
  end

let zero_grads t =
  Array.fill t.grad_w.Mat.data 0 (Array.length t.grad_w.Mat.data) 0.;
  Vec.fill t.grad_b 0.

let scale_grads t alpha =
  let d = t.grad_w.Mat.data in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get d i *. alpha)
  done;
  let b = t.grad_b in
  for i = 0 to Vec.dim b - 1 do
    Array.unsafe_set b i (Array.unsafe_get b i *. alpha)
  done

let copy t =
  {
    w = Mat.copy t.w;
    b = Vec.copy t.b;
    act = t.act;
    grad_w = Mat.copy t.grad_w;
    grad_b = Vec.copy t.grad_b;
  }
