type t = { ts : float; size : int }

let make ~ts ~size =
  if not (Float.is_finite ts) then invalid_arg "Packet.make: non-finite timestamp";
  if ts < 0. then invalid_arg "Packet.make: negative timestamp";
  if size <= 0 then invalid_arg "Packet.make: non-positive size";
  { ts; size }

let inter_arrival_times packets =
  let n = Array.length packets in
  if n < 2 then [||]
  else Array.init (n - 1) (fun i -> packets.(i + 1).ts -. packets.(i).ts)

let total_bytes packets =
  Array.fold_left (fun acc p -> acc + p.size) 0 packets

let duration packets =
  let n = Array.length packets in
  if n < 2 then 0. else packets.(n - 1).ts -. packets.(0).ts
