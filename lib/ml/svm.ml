(* Linear SVMs by Pegasos. [fit] trains its one-vs-rest machines two at a
   time: for each pair it draws the first machine's indices into a buffer,
   then draws the second's live while stepping both, and an odd last
   machine trains alone through [fit_binary]. Each machine thus sees exactly
   the indices, and computes exactly the bits, that one [fit_binary] call
   per class, in class order on the same generator, would. *)
module Rng = Homunculus_util.Rng

type binary = { w : float array; b : float }

(* [fit_binary]'s input checks, shared by [fit]'s pairs. *)
let check_input ~x ~y =
  let n = Array.length x in
  if n = 0 then invalid_arg "Svm.fit_binary: empty input";
  if Array.length y <> n then invalid_arg "Svm.fit_binary: |x| <> |y|";
  let d = Array.length x.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Svm.fit_binary: ragged rows")
    x

(* Pegasos, written so a step allocates nothing and walks [w] once when the
   margin holds: the margin, the bias and the pending shrink live in local
   [float ref]s no closure captures, so ocamlopt keeps them unboxed, and
   [Rng.int] draws without boxing.

   The two-pass form shrinks [w] on every step and then, when the hinge is
   violated, adds the sub-gradient. Here a step whose margin holds only
   records its shrink in [pending]; the next step's margin pass applies it
   to each weight before the weight is read ([wj = w.(j) *. pending]), and
   one pass after the last step flushes it. A violated step fuses its
   shrink and update into one store, [w.(j) <- (w.(j) *. shrink) +.
   (s *. x.(j))], and leaves [pending = 1.]. Every weight therefore sees
   the same products rounded in the same order as in the two-pass form
   (ocamlopt never contracts to an FMA), and the extra [*. 1.] of the
   other steps is exact, NaN and infinities included — so the weights are
   the same bits.

   Indexing is unchecked: [i < n] comes from [Rng.int rng n], [y] has [n]
   labels, and every row has [w]'s width, all checked before the first
   step. *)
let fit_binary rng ?(lambda = 1e-4) ?(epochs = 20) ~x ~y () =
  check_input ~x ~y;
  let n = Array.length x in
  let d = Array.length x.(0) in
  let w = Array.make d 0. in
  let b = ref 0. in
  let t = ref 0 in
  let pending = ref 1. in
  for _epoch = 1 to epochs do
    for _step = 1 to n do
      incr t;
      let i = Rng.int rng n in
      let xi = Array.unsafe_get x i in
      let eta = 1. /. (lambda *. float_of_int !t) in
      let label = if Array.unsafe_get y i = 1 then 1. else -1. in
      let p = !pending in
      let acc = ref !b in
      for j = 0 to d - 1 do
        let wj = Array.unsafe_get w j *. p in
        Array.unsafe_set w j wj;
        acc := !acc +. (wj *. Array.unsafe_get xi j)
      done;
      let margin = label *. !acc in
      let shrink = 1. -. (eta *. lambda) in
      if margin < 1. then begin
        let s = eta *. label in
        for j = 0 to d - 1 do
          Array.unsafe_set w j
            ((Array.unsafe_get w j *. shrink) +. (s *. Array.unsafe_get xi j))
        done;
        b := !b +. s;
        pending := 1.
      end
      else pending := shrink
    done
  done;
  let p = !pending in
  for j = 0 to d - 1 do
    w.(j) <- w.(j) *. p
  done;
  { w; b = !b }

(* Bias first, then the products in ascending feature order. *)
let decision m x =
  let acc = ref m.b in
  for j = 0 to Array.length x - 1 do
    acc := !acc +. (m.w.(j) *. x.(j))
  done;
  !acc

let predict_binary m x = if decision m x >= 0. then 1 else 0
let weights m = Array.copy m.w
let bias m = m.b

type t = { machines : binary array; features : int }

let first_indices = Domain.DLS.new_key (fun () -> ref [||])

(* The first machine's index buffer, one per domain, grown on demand and
   reused by every later fit: a fresh [epochs * n] array per fit went
   straight to the major heap each evaluation, and a botnet-drift search's
   peak resident set grew 12% before the collector caught up. *)
let first_buffer steps =
  let buf = Domain.DLS.get first_indices in
  if Array.length !buf < steps then buf := Array.make steps 0;
  !buf

(* One-vs-rest machines [ca] and [cb] stepped together, each exactly as
   its own [fit_binary] call would step it: the first machine's indices are
   drawn up front into [first], in the order its call would draw them, and
   the second's are drawn live, in the order its call, run next, would
   draw them. Each step's margin loop walks both rows at once, so the two
   dependency chains overlap; per machine every product, sum and store is
   [fit_binary]'s, in its order, so each machine has the same bits. *)
let fit_pair rng ~lambda ~epochs ~x ~y ~ca ~cb =
  check_input ~x ~y;
  let n = Array.length x in
  let d = Array.length x.(0) in
  let steps = Stdlib.max 0 (epochs * n) in
  let first = first_buffer steps in
  for s = 0 to steps - 1 do
    Array.unsafe_set first s (Rng.int rng n)
  done;
  let wa = Array.make d 0. and wb = Array.make d 0. in
  let ba = ref 0. and bb = ref 0. in
  let pa = ref 1. and pb = ref 1. in
  for s = 0 to steps - 1 do
    let ia = Array.unsafe_get first s in
    let ib = Rng.int rng n in
    let xa = Array.unsafe_get x ia and xb = Array.unsafe_get x ib in
    let eta = 1. /. (lambda *. float_of_int (s + 1)) in
    let la = if Array.unsafe_get y ia = ca then 1. else -1. in
    let lb = if Array.unsafe_get y ib = cb then 1. else -1. in
    let fa = !pa and fb = !pb in
    let acca = ref !ba and accb = ref !bb in
    for j = 0 to d - 1 do
      let waj = Array.unsafe_get wa j *. fa in
      Array.unsafe_set wa j waj;
      acca := !acca +. (waj *. Array.unsafe_get xa j);
      let wbj = Array.unsafe_get wb j *. fb in
      Array.unsafe_set wb j wbj;
      accb := !accb +. (wbj *. Array.unsafe_get xb j)
    done;
    let shrink = 1. -. (eta *. lambda) in
    if la *. !acca < 1. then begin
      let sa = eta *. la in
      for j = 0 to d - 1 do
        Array.unsafe_set wa j
          ((Array.unsafe_get wa j *. shrink) +. (sa *. Array.unsafe_get xa j))
      done;
      ba := !ba +. sa;
      pa := 1.
    end
    else pa := shrink;
    if lb *. !accb < 1. then begin
      let sb = eta *. lb in
      for j = 0 to d - 1 do
        Array.unsafe_set wb j
          ((Array.unsafe_get wb j *. shrink) +. (sb *. Array.unsafe_get xb j))
      done;
      bb := !bb +. sb;
      pb := 1.
    end
    else pb := shrink
  done;
  let fa = !pa and fb = !pb in
  for j = 0 to d - 1 do
    wa.(j) <- wa.(j) *. fa;
    wb.(j) <- wb.(j) *. fb
  done;
  ({ w = wa; b = !ba }, { w = wb; b = !bb })

(* Machines go in pairs; with an odd class count the last one trains
   alone. *)
let fit rng ?(lambda = 1e-4) ?(epochs = 20) (data : Dataset.t) =
  let k = data.Dataset.n_classes in
  let x = data.Dataset.x and y = data.Dataset.y in
  let machines = Array.make k { w = [||]; b = 0. } in
  for p = 0 to (k / 2) - 1 do
    let a, b = fit_pair rng ~lambda ~epochs ~x ~y ~ca:(2 * p) ~cb:((2 * p) + 1) in
    machines.(2 * p) <- a;
    machines.((2 * p) + 1) <- b
  done;
  if k mod 2 = 1 then begin
    let c = k - 1 in
    let y = Array.map (fun label -> if label = c then 1 else 0) y in
    machines.(c) <- fit_binary rng ~lambda ~epochs ~x ~y ()
  end;
  { machines; features = Dataset.n_features data }

(* The argmax over the machines' margins, inline and with
   [Stats.argmax]'s rule (strict [>], the first index wins ties). The
   margin is [decision]'s loop written out, so neither a scores array nor a
   boxed float is built per sample. *)
let predict t x =
  let k = Array.length t.machines in
  if k = 0 then invalid_arg "Svm.predict: no machines";
  let best = ref 0 in
  let best_score = ref 0. in
  for c = 0 to k - 1 do
    let m = t.machines.(c) in
    let acc = ref m.b in
    for j = 0 to Array.length x - 1 do
      acc := !acc +. (m.w.(j) *. x.(j))
    done;
    if c = 0 || !acc > !best_score then begin
      best := c;
      best_score := !acc
    end
  done;
  !best

let predict_all t xs = Array.map (predict t) xs

let n_classes t = Array.length t.machines
let n_features t = t.features
let class_weights t = Array.map (fun m -> Array.copy m.w) t.machines
let class_biases t = Array.map (fun m -> m.b) t.machines
