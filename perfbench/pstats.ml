(* Summary statistics the benchmark reports: medians of repeated
   measurements, and nearest-rank tail percentiles that are only reported
   when the sample supports them. *)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.median: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let percentile = Homunculus_serve.Report.percentile

(* Samples strictly above the nearest-rank [p]th percentile: the rank is
   ceil(p/100 * n), computed exactly as [percentile] computes it. *)
let beyond ~p n =
  let r = p /. 100. *. float_of_int n in
  let rank = int_of_float (Float.ceil (r -. (1e-9 *. Float.max 1. r))) in
  n - Stdlib.max 1 rank

(* A tail percentile is reported only when at least ten samples lie beyond
   it; otherwise its value would be set by a handful of outliers. *)
let min_beyond = 10

let supported ~p n = n > 0 && beyond ~p n >= min_beyond

let tail ~p xs =
  if not (supported ~p (Array.length xs)) then
    invalid_arg
      (Printf.sprintf "Pstats.tail: p%g needs %d samples beyond it, %d samples"
         p min_beyond (Array.length xs));
  percentile p xs

(* The mean of the samples ranked within [half_width] percentiles of [p]:
   a median or tail estimate that keeps fractional digits when samples are
   whole nanoseconds and cluster on a few values. The band's upper edge
   obeys the tail rule. Sorts [xs] in place, so timing loops can reuse one
   buffer without allocating. *)
let band_mean ~p ~half_width xs =
  let n = Array.length xs in
  let top = Float.min 100. (p +. half_width) in
  if not (supported ~p:top n) then
    invalid_arg (Printf.sprintf "Pstats.band_mean: p%g unsupported on %d samples" p n);
  let s = xs in
  Array.sort Float.compare s;
  let rank q = n - beyond ~p:q n in
  let lo = Stdlib.max 1 (rank (Float.max 0. (p -. half_width))) and hi = rank top in
  let sum = ref 0. in
  for i = lo to hi do
    sum := !sum +. s.(i - 1)
  done;
  !sum /. float_of_int (hi - lo + 1)
