module Json = Homunculus_util.Json
module Bo = Homunculus_bo

type failure = { failure_class : string; message : string; retries : int }
type kind = Exact

type record = {
  scope : string;
  index : int;
  config : Bo.Config.t;
  objective : float;
  feasible : bool;
  pruned : bool;
  metadata : (string * float) list;
  failure : failure option;
  kind : kind;
}

(* 64-bit FNV-1a over the compact rendering of the record object. The
   parser preserves member order and the printer's number rendering
   round-trips ([%.0f] for integral values, [%.17g] otherwise), so a line we
   wrote re-renders byte-identically after parsing — which is what lets the
   loader verify the checksum without storing the original text. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let checksum s = Printf.sprintf "%016Lx" (fnv1a64 s)

let failure_to_json f =
  Json.Object
    [
      ("class", Json.String f.failure_class);
      ("message", Json.String f.message);
      ("retries", Json.Number (float_of_int f.retries));
    ]

let failure_of_json json =
  {
    failure_class = Json.get_string (Json.member json "class");
    message = Json.get_string (Json.member json "message");
    retries = Json.to_int (Json.member json "retries");
  }

let record_to_json r =
  Json.Object
    [
      ("scope", Json.String r.scope);
      ("index", Json.Number (float_of_int r.index));
      ("config", Bo.Serialize.config_to_json_tagged r.config);
      ("objective", Json.Number r.objective);
      ("feasible", Json.Bool r.feasible);
      ("pruned", Json.Bool r.pruned);
      ("metadata",
       Json.Object (List.map (fun (k, v) -> (k, Json.Number v)) r.metadata));
      ("failure",
       match r.failure with None -> Json.Null | Some f -> failure_to_json f);
    ]

let record_of_json json =
  {
    scope = Json.get_string (Json.member json "scope");
    index = Json.to_int (Json.member json "index");
    config = Bo.Serialize.config_of_json_tagged (Json.member json "config");
    objective = Json.to_float (Json.member json "objective");
    feasible = Json.to_bool (Json.member json "feasible");
    pruned = Json.to_bool (Json.member json "pruned");
    metadata =
      (match Json.member json "metadata" with
      | Json.Object members ->
          List.map (fun (k, v) -> (k, Json.to_float v)) members
      | _ -> invalid_arg "Journal: metadata must be an object");
    failure =
      (match Json.member json "failure" with
      | Json.Null -> None
      | f -> Some (failure_of_json f));
    kind =
      (* Older journals tagged each record "exact", or "predicted" for a
         learned pre-filter's skip; the latter replays as the infeasible
         entry it recorded. Any other kind (the lease/release lines an
         earlier distributed coordinator interleaved with results) is not an
         evaluation; the loader drops the line rather than replaying it as
         one. *)
      (match Json.member_opt json "kind" with
      | Some (Json.String ("exact" | "predicted")) | None -> Exact
      | Some _ -> invalid_arg "Journal: unknown record kind");
  }

let line_of_record r =
  let rec_text = Json.to_string ~pretty:false (record_to_json r) in
  Printf.sprintf "{\"sum\":%s,\"rec\":%s}"
    (Json.to_string ~pretty:false (Json.String (checksum rec_text)))
    rec_text

(* A line survives loading only if it parses, carries both members, and the
   re-rendered record matches its recorded checksum — a truncated final line
   (the crash case the WAL exists for) or a corrupted byte fails one of
   those and is dropped rather than poisoning the resume. *)
let record_of_line line =
  match Json.of_string line with
  | exception _ -> None
  | json -> (
      match (Json.member_opt json "sum", Json.member_opt json "rec") with
      | Some (Json.String sum), Some rec_json -> (
          let rec_text = Json.to_string ~pretty:false rec_json in
          if not (String.equal sum (checksum rec_text)) then None
          else match record_of_json rec_json with
            | r -> Some r
            | exception _ -> None)
      | _ -> None)

(* Append handle: fsync'd writes serialized by a mutex so parallel
   evaluation workers never interleave partial lines. The record count is
   handle-local — [Faultplan.Kill_after] measures records absorbed by the
   current run, not lines inherited from a previous incarnation.

   Group commit: with [fsync_every = k > 1] the handle fsyncs once per [k]
   appends (and on [sync]/[close]) instead of once per record. Every line is
   still written whole under the mutex, so the durability contract weakens
   only in degree: a crash can lose at most the last [k - 1] fully-written
   but unsynced records plus one torn tail line — all of which replay
   already tolerates (a lost record is just re-evaluated, a torn line is
   dropped by the checksum). *)

type t = {
  path : string;
  fd : Unix.file_descr;
  mutex : Mutex.t;
  fsync_every : int;
  mutable unsynced : int;
  mutable records : int;
}

let open_ ?(fsync_every = 1) path =
  if fsync_every < 1 then invalid_arg "Journal.open_: fsync_every < 1";
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { path; fd; mutex = Mutex.create (); fsync_every; unsynced = 0; records = 0 }

let path t = t.path
let appended t = t.records

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let append t record =
  let line = line_of_record record ^ "\n" in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      write_all t.fd (Bytes.of_string line);
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= t.fsync_every then begin
        Unix.fsync t.fd;
        t.unsynced <- 0
      end;
      t.records <- t.records + 1;
      t.records)

let sync t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if t.unsynced > 0 then begin
        Unix.fsync t.fd;
        t.unsynced <- 0
      end)

let close t =
  (try sync t with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Replay cache: records keyed by (scope, canonical configuration key).
   Resume re-drives the optimizer with the original seed; every proposal it
   re-derives hits the cache and returns the recorded evaluation instantly,
   so the rebuilt history is bit-for-bit the uninterrupted one. Later
   records for the same key win (a retried-then-recorded evaluation
   supersedes an earlier incarnation's). *)

type replay = {
  table : (string, record) Hashtbl.t;
  mutable loaded : int;
  mutable dropped : int;
}

let key ~scope ~config = scope ^ "\x00" ^ Bo.Serialize.config_key config

let empty_replay () = { table = Hashtbl.create 64; loaded = 0; dropped = 0 }

let absorb replay r =
  replay.loaded <- replay.loaded + 1;
  Hashtbl.replace replay.table (key ~scope:r.scope ~config:r.config) r

(* Single streaming pass over a journal file: every valid record is handed
   to [f] in file order, invalid lines are counted. [load], [records], and
   [read] are all one call to this — a caller that needs both the replay
   table and the raw record list pays for one read and one checksum pass,
   not two. *)
let fold_records path ~init ~f =
  let dropped = ref 0 in
  let acc = ref init in
  (if Sys.file_exists path then
     let ic = open_in path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match record_of_line line with
               | Some r -> acc := f !acc r
               | None -> incr dropped
           done
         with End_of_file -> ()));
  (!acc, !dropped)

let read path =
  let replay = empty_replay () in
  let raw, dropped =
    fold_records path ~init:[] ~f:(fun acc r ->
        absorb replay r;
        r :: acc)
  in
  replay.dropped <- dropped;
  (List.rev raw, replay)

let load path =
  let replay = empty_replay () in
  let (), dropped =
    fold_records path ~init:() ~f:(fun () r -> absorb replay r)
  in
  replay.dropped <- dropped;
  replay

let find replay ~scope ~config =
  Hashtbl.find_opt replay.table (key ~scope ~config)

let loaded replay = replay.loaded
let dropped replay = replay.dropped

(* Deterministic union of several replay tables: tables later in the list
   supersede earlier ones on key conflicts, mirroring the later-record-wins
   rule within one file. *)
let merge replays =
  let out = empty_replay () in
  List.iter
    (fun r ->
      out.loaded <- out.loaded + r.loaded;
      out.dropped <- out.dropped + r.dropped;
      Hashtbl.iter (fun k v -> Hashtbl.replace out.table k v) r.table)
    replays;
  out

let records path =
  let _, replay = read path in
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) replay.table [] in
  List.sort (fun a b -> compare (a.scope, a.index) (b.scope, b.index)) all
