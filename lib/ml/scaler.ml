type t = { mu : float array; sigma : float array }

(* Plain index loops, so no float is boxed per element. The sums run row by
   row, then column by column within a row — the order of the
   [Array.iter]/[Array.iteri] form they replace — so [mu], [sigma] and
   every output are the same bits. *)
let fit x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Scaler.fit: empty input";
  let d = Array.length x.(0) in
  let mu = Array.make d 0. in
  for i = 0 to n - 1 do
    let row = x.(i) in
    for j = 0 to Array.length row - 1 do
      mu.(j) <- mu.(j) +. row.(j)
    done
  done;
  for j = 0 to d - 1 do
    mu.(j) <- mu.(j) /. float_of_int n
  done;
  let var = Array.make d 0. in
  for i = 0 to n - 1 do
    let row = x.(i) in
    for j = 0 to Array.length row - 1 do
      let delta = row.(j) -. mu.(j) in
      var.(j) <- var.(j) +. (delta *. delta)
    done
  done;
  let sigma = Array.make d 0. in
  for j = 0 to d - 1 do
    let sd = sqrt (var.(j) /. float_of_int n) in
    sigma.(j) <- (if sd < 1e-12 then 1. else sd)
  done;
  { mu; sigma }

let transform_row t row =
  let out = Array.make (Array.length row) 0. in
  for j = 0 to Array.length row - 1 do
    out.(j) <- (row.(j) -. t.mu.(j)) /. t.sigma.(j)
  done;
  out

let inverse_transform_row t row =
  let out = Array.make (Array.length row) 0. in
  for j = 0 to Array.length row - 1 do
    out.(j) <- (row.(j) *. t.sigma.(j)) +. t.mu.(j)
  done;
  out

let transform t x = Array.map (transform_row t) x

let apply_dataset t (d : Dataset.t) = { d with Dataset.x = transform t d.Dataset.x }

let fit_dataset (d : Dataset.t) =
  let t = fit d.Dataset.x in
  (t, apply_dataset t d)

let mean t = Array.copy t.mu
let stddev t = Array.copy t.sigma
