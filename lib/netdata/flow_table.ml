type key = { src : int; dst : int; src_port : int; dst_port : int; proto : int }

let key_of_ints src dst = { src; dst; src_port = 0; dst_port = 0; proto = 0 }

type slot = { mutable owner : key option; bins : float array }

type t = {
  slots : slot array;
  marker_bins : int;
  mutable evictions : int;
}

(* splitmix64-style avalanche over the 5-tuple; deterministic across runs
   and well mixed even for sequential addresses. *)
let mix v =
  let v = (v lxor (v lsr 30)) * 0x4be98134a5976fd3 in
  let v = (v lxor (v lsr 27)) * 0x3bbf2a01355f8c4d in
  v lxor (v lsr 31)

let hash_key k =
  let step acc v = mix (acc lxor mix v) in
  let h = 0x51ed270b (* arbitrary non-zero seed *) in
  let h = step (step (step h k.src) k.dst) k.src_port in
  let h = step (step h k.dst_port) k.proto in
  h land max_int

let key_equal a b =
  a.src = b.src && a.dst = b.dst && a.src_port = b.src_port
  && a.dst_port = b.dst_port && a.proto = b.proto

let create ~sram_bytes ~marker_bins ?(bytes_per_bin = 2) () =
  if sram_bytes <= 0 || marker_bins <= 0 || bytes_per_bin <= 0 then
    invalid_arg "Flow_table.create: non-positive sizes";
  let slot_bytes = marker_bins * bytes_per_bin in
  let capacity = sram_bytes / slot_bytes in
  if capacity <= 0 then invalid_arg "Flow_table.create: no slot fits the SRAM";
  {
    slots =
      Array.init capacity (fun _ -> { owner = None; bins = Array.make marker_bins 0. });
    marker_bins;
    evictions = 0;
  }

let capacity t = Array.length t.slots

let slot_of t key = t.slots.(hash_key key mod Array.length t.slots)

let record t key ~value ~bin =
  if bin < 0 || bin >= t.marker_bins then invalid_arg "Flow_table.record: bad bin";
  let slot = slot_of t key in
  (match slot.owner with
  | Some owner when key_equal owner key -> ()
  | Some _ ->
      t.evictions <- t.evictions + 1;
      Array.fill slot.bins 0 t.marker_bins 0.;
      slot.owner <- Some key
  | None -> slot.owner <- Some key);
  slot.bins.(bin) <- slot.bins.(bin) +. value

let marker t key =
  let slot = slot_of t key in
  match slot.owner with
  | Some owner when key_equal owner key -> Some (Array.copy slot.bins)
  | Some _ | None -> None

let active_flows t =
  Array.fold_left
    (fun acc slot -> match slot.owner with Some _ -> acc + 1 | None -> acc)
    0 t.slots

let evictions t = t.evictions

let stress t ~n_flows ~touches_per_flow =
  if n_flows <= 0 || touches_per_flow <= 0 then
    invalid_arg "Flow_table.stress: non-positive counts";
  let keys = Array.init n_flows (fun i -> key_of_ints i (i * 31)) in
  for _round = 1 to touches_per_flow do
    Array.iter (fun key -> record t key ~value:1. ~bin:0) keys
  done;
  let intact = ref 0 in
  Array.iter
    (fun key ->
      match marker t key with
      | Some bins when bins.(0) = float_of_int touches_per_flow -> incr intact
      | Some _ | None -> ())
    keys;
  float_of_int !intact /. float_of_int n_flows
