module Rng = Homunculus_util.Rng
open Homunculus_netdata

type event = {
  ts : float;
  flow_id : int;
  app : string;
  label : int;
  packet_index : int;
  features : float array;
}

type config = {
  bins : Botnet.bins;
  min_packets : int;
  sram_bytes : int;
}

let default_config = { bins = Botnet.Fused; min_packets = 4; sram_bytes = 1 lsl 16 }

let specs_of_bins = function
  | Botnet.Full -> (Botnet.pl_spec_full, Botnet.ipt_spec_full)
  | Botnet.Fused -> (Botnet.pl_spec_fused, Botnet.ipt_spec_fused)

let bin_of spec v =
  let i = int_of_float (v /. spec.Histogram.bin_width) in
  Homunculus_util.Mathx.clamp_int ~lo:0 ~hi:(spec.Histogram.n_bins - 1) i

(* Normalize the two halves of a raw marker independently, the way
   Flow.flowmarker normalizes its two histograms. In place: [marker] is the
   table's fresh copy. Bins are non-negative counts, so a half whose sum is
   not positive is already all zeros. *)
let normalize_marker ~pl_bins marker =
  let normalize lo hi =
    let sum = ref 0. in
    for i = lo to hi - 1 do
      sum := !sum +. marker.(i)
    done;
    if !sum > 0. then
      for i = lo to hi - 1 do
        marker.(i) <- marker.(i) /. !sum
      done
  in
  normalize 0 pl_bins;
  normalize pl_bins (Array.length marker)

let events_scheduled ?(config = default_config) scheduled =
  let pl_spec, ipt_spec = specs_of_bins config.bins in
  let pl_bins = pl_spec.Histogram.n_bins in
  let marker_bins = pl_bins + ipt_spec.Histogram.n_bins in
  let table =
    Flow_table.create ~sram_bytes:config.sram_bytes ~marker_bins ()
  in
  let flow_ids =
    Array.map
      (fun (start, flow) ->
        if not (Float.is_finite start) then
          invalid_arg "Stream.events_scheduled: non-finite start";
        if start < 0. then invalid_arg "Stream.events_scheduled: negative start";
        flow.Flow.id)
      scheduled
  in
  let keys = Array.map (fun id -> Flow_table.key_of_ints id id) flow_ids in
  (* Inter-arrival state lives in one slot per distinct id, shared by every
     scheduled flow with that id. *)
  let ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let id_slot =
    Array.map
      (fun id ->
        match Hashtbl.find_opt ids id with
        | Some slot -> slot
        | None ->
            let slot = Hashtbl.length ids in
            Hashtbl.add ids id slot;
            slot)
      flow_ids
  in
  (* One timeline entry per packet in flat arrays, then a stable sort of
     their positions by (arrival time, flow id, packet index). *)
  let n =
    Array.fold_left (fun acc (_, flow) -> acc + Array.length flow.Flow.packets) 0 scheduled
  in
  let ts = Array.make n 0. and owner = Array.make n 0 and index = Array.make n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun s (start, flow) ->
      Array.iteri
        (fun i p ->
          ts.(!pos) <- start +. p.Packet.ts;
          owner.(!pos) <- s;
          index.(!pos) <- i;
          incr pos)
        flow.Flow.packets)
    scheduled;
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare ts.(a) ts.(b) in
      if c <> 0 then c
      else
        let c = Int.compare flow_ids.(owner.(a)) flow_ids.(owner.(b)) in
        if c <> 0 then c else Int.compare index.(a) index.(b))
    order;
  let last_ts = Array.make (Hashtbl.length ids) 0. in
  let seen = Array.make (Hashtbl.length ids) false in
  let out = ref [] in
  Array.iter
    (fun k ->
      let s = owner.(k) and i = index.(k) and ts = ts.(k) in
      let flow = snd scheduled.(s) and key = keys.(s) and slot = id_slot.(s) in
      let size = float_of_int flow.Flow.packets.(i).Packet.size in
      Flow_table.record table key ~value:1. ~bin:(bin_of pl_spec size);
      if seen.(slot) then begin
        let gap = ts -. last_ts.(slot) in
        Flow_table.record table key ~value:1.
          ~bin:(pl_bins + bin_of ipt_spec gap)
      end;
      seen.(slot) <- true;
      last_ts.(slot) <- ts;
      if i + 1 >= config.min_packets then
        let features =
          match Flow_table.marker table key with
          | Some m ->
              normalize_marker ~pl_bins m;
              m
          | None -> Array.make marker_bins 0.
        in
        out :=
          {
            ts;
            flow_id = flow_ids.(s);
            app = flow.Flow.app;
            label = Flow.label_to_int flow.Flow.label;
            packet_index = i + 1;
            features;
          }
          :: !out)
    order;
  Array.of_list (List.rev !out)

let events rng ?(config = default_config) ?(start_window_s = 600.) flows =
  let scheduled =
    Array.map (fun f -> (Rng.float rng start_window_s, f)) flows
  in
  events_scheduled ~config scheduled

let of_samples ?(app = "synthetic") ?labels ~ts xs =
  let n = Array.length xs in
  if Array.length ts <> n then
    invalid_arg "Stream.of_samples: timestamp/sample length mismatch";
  (match labels with
  | Some l when Array.length l <> n ->
      invalid_arg "Stream.of_samples: label/sample length mismatch"
  | _ -> ());
  Array.init n (fun i ->
      {
        ts = ts.(i);
        flow_id = i;
        app;
        label = (match labels with Some l -> l.(i) | None -> 0);
        packet_index = 1;
        features = xs.(i);
      })

let shift_botnet ?(size_scale = 6.) ?(gap_scale = 0.1) flows =
  Array.map
    (fun f ->
      match f.Flow.label with
      | Flow.Benign -> f
      | Flow.Botnet ->
          let packets =
            Array.map
              (fun p ->
                Packet.make
                  ~ts:(p.Packet.ts *. gap_scale)
                  ~size:
                    (Homunculus_util.Mathx.clamp_int ~lo:40 ~hi:1500
                       (int_of_float (float_of_int p.Packet.size *. size_scale))))
              f.Flow.packets
          in
          Flow.make ~id:f.Flow.id ~label:f.Flow.label ~app:f.Flow.app ~packets)
    flows

let renumber ~from flows =
  Array.mapi
    (fun i f ->
      Flow.make ~id:(from + i) ~label:f.Flow.label ~app:f.Flow.app
        ~packets:f.Flow.packets)
    flows
