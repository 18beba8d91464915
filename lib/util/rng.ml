(* The splitmix64 counter lives in [bits] at offset 0 and the spare
   Gaussian's IEEE bits at offset 8, read and written through
   [Bytes.get/set_int64_ne]. A [mutable] [int64] or [float option] field
   would box on every store; the bytes are stored in place, so no draw
   allocates inside this module. A [float]/[gaussian] result still boxes
   (2 words) on its way back to a caller in another module. *)
type t = { bits : Bytes.t; mutable has_spare : bool }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let bits = Bytes.create 16 in
  Bytes.set_int64_ne bits 0 state;
  Bytes.set_int64_ne bits 8 0L;
  { bits; has_spare = false }

let create seed = of_state (Int64.of_int seed)

let copy t = { bits = Bytes.copy t.bits; has_spare = t.has_spare }

let[@inline] int64 t =
  let state = Int64.add (Bytes.get_int64_ne t.bits 0) golden_gamma in
  Bytes.set_int64_ne t.bits 0 state;
  mix state

let split t = of_state (mix (int64 t))

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n < 0";
  (* Explicit loop: the streams must be derived in index order regardless of
     how the stdlib schedules [Array.init] callbacks. *)
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the 62 low bits avoids modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let r = ref (-1) in
  while !r < 0 do
    let v = Int64.to_int (int64 t) land mask in
    let x = v mod bound in
    if v - x + (bound - 1) >= 0 then r := x
  done;
  !r

let[@inline] float t bound =
  (* 53 random bits -> uniform in [0, 1), then scale. *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let[@inline] uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let gaussian t ?(mu = 0.) ?(sigma = 1.) () =
  if t.has_spare then begin
    t.has_spare <- false;
    mu +. (sigma *. Int64.float_of_bits (Bytes.get_int64_ne t.bits 8))
  end
  else begin
    (* Marsaglia's polar method: two deviates per accepted pair, the
       second cached as the spare. *)
    let u = ref 0. and v = ref 0. and s = ref 0. in
    while !s >= 1. || !s = 0. do
      u := uniform t (-1.) 1.;
      v := uniform t (-1.) 1.;
      s := (!u *. !u) +. (!v *. !v)
    done;
    let f = sqrt (-2. *. log !s /. !s) in
    Bytes.set_int64_ne t.bits 8 (Int64.bits_of_float (!v *. f));
    t.has_spare <- true;
    mu +. (sigma *. (!u *. f))
  end

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let pareto t ~xm ~alpha =
  let u = 1.0 -. float t 1.0 in
  xm /. (u ** (1.0 /. alpha))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma ())

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let choice_weighted t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice_weighted: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. arr in
  if total <= 0. then invalid_arg "Rng.choice_weighted: weights sum to zero";
  let target = float t total in
  let n = Array.length arr in
  let rec go i acc =
    if i = n - 1 then fst arr.(i)
    else
      let acc = acc +. snd arr.(i) in
      if target < acc then fst arr.(i) else go (i + 1) acc
  in
  go 0 0.

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle_in_place t arr;
  arr

let sample_indices t ~n ~k =
  if k > n then invalid_arg "Rng.sample_indices: k > n";
  (* Floyd's algorithm: k distinct values without building [0..n-1]. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let pos = ref 0 in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    out.(!pos) <- v;
    incr pos
  done;
  out
