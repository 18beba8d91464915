module Rng = Homunculus_util.Rng

type binary = { w : float array; b : float }

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
  let n = Array.length x in
  if n = 0 then invalid_arg "Svm.fit_binary: empty input";
  if Array.length y <> n then invalid_arg "Svm.fit_binary: |x| <> |y|";
  let d = Array.length x.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Svm.fit_binary: ragged rows")
    x;
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

let fit rng ?lambda ?epochs (d : Dataset.t) =
  let n_classes = d.Dataset.n_classes in
  let machines =
    Array.init n_classes (fun c ->
        let y = Array.map (fun label -> if label = c then 1 else 0) d.Dataset.y in
        fit_binary rng ?lambda ?epochs ~x:d.Dataset.x ~y ())
  in
  { machines; features = Dataset.n_features d }

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
