(* In-memory span recorder for the traced run. Spans are recorded from the
   benchmark's own code around calls into each layer's public functions;
   they are written out once, when the run ends. Recording is
   mutex-guarded because evaluation spans close on pool worker domains. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<operation>" *)
  layer : string;
  phase : string;  (** shared by every span of one workload phase *)
  parent : int option;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  lock : Mutex.t;
  mutable next_id : int;
  mutable rev_spans : span list;
}

let create () = { lock = Mutex.create (); next_id = 0; rev_spans = [] }

let now_ns = Monotonic_clock.now

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  Mutex.unlock t.lock;
  id

let add t span =
  Mutex.lock t.lock;
  t.rev_spans <- span :: t.rev_spans;
  Mutex.unlock t.lock

let record t ~id ~phase ?parent ~start_ns ~stop_ns name =
  add t { id; name; layer = layer_of name; phase; parent; start_ns; stop_ns }

(* Run [f] inside a new span; [f] receives the span's id so it can parent
   nested spans. The span is recorded even when [f] raises. *)
let within t ~phase ?parent name f =
  let id = fresh_id t in
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      record t ~id ~phase ?parent ~start_ns ~stop_ns:(now_ns ()) name)
    (fun () -> f id)

let spans t = List.rev t.rev_spans

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Total length of the union of [intervals] clipped to [lo, hi]: parallel
   children overlap, and time covered twice must be subtracted once. *)
let covered_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, Int64.max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total

(* A span's self time: its duration minus the part of its interval that its
   child spans cover. *)
let self_ns all s =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = Some s.id then Some (c.start_ns, c.stop_ns) else None)
      all
  in
  Int64.sub (duration_ns s) (covered_ns ~lo:s.start_ns ~hi:s.stop_ns children)

(* Self time summed per layer, in seconds, sorted by layer name. *)
let self_by_layer all =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt tbl s.layer) ~default:0L in
      Hashtbl.replace tbl s.layer (Int64.add prev (self_ns all s)))
    all;
  Hashtbl.fold (fun layer ns acc -> (layer, Int64.to_float ns *. 1e-9) :: acc) tbl []
  |> List.sort compare

(* Share of [lo, hi] covered by the spans of [phase]. *)
let coverage all ~phase ~lo ~hi =
  let intervals =
    List.filter_map
      (fun s -> if s.phase = phase then Some (s.start_ns, s.stop_ns) else None)
      all
  in
  Int64.to_float (covered_ns ~lo ~hi intervals)
  /. Int64.to_float (Int64.sub hi lo)

let to_json s =
  let module Json = Homunculus_util.Json in
  Json.Object
    [
      ("id", Json.Number (float_of_int s.id));
      ("name", Json.String s.name);
      ("phase", Json.String s.phase);
      ( "parent",
        match s.parent with
        | Some p -> Json.Number (float_of_int p)
        | None -> Json.Null );
      ("start_ns", Json.Number (Int64.to_float s.start_ns));
      ("end_ns", Json.Number (Int64.to_float s.stop_ns));
    ]
