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

let checksummed member body =
  let text = Json.to_string ~pretty:false body in
  Printf.sprintf "{\"sum\":%s,\"%s\":%s}"
    (Json.to_string ~pretty:false (Json.String (checksum text)))
    member text

let line_of_record r = checksummed "rec" (record_to_json r)

(* A model line: one search scope's winning model, an opaque payload keyed
   like an evaluation record. *)
type model = { m_scope : string; m_config : Bo.Config.t; payload : Json.t }

let model_to_json m =
  Json.Object
    [
      ("scope", Json.String m.m_scope);
      ("config", Bo.Serialize.config_to_json_tagged m.m_config);
      ("payload", m.payload);
    ]

let model_of_json json =
  {
    m_scope = Json.get_string (Json.member json "scope");
    m_config = Bo.Serialize.config_of_json_tagged (Json.member json "config");
    payload = Json.member json "payload";
  }

type line = Record of record | Model of model

(* A line survives loading only if it parses, carries the checksum and one
   body member, and the re-rendered body matches its recorded checksum — a
   truncated final line (the crash case the WAL exists for) or a corrupted
   byte fails one of those and is dropped rather than poisoning the
   resume. *)
let parse_line line =
  match Json.of_string line with
  | exception _ -> None
  | json -> (
      let body member of_json =
        match Json.member_opt json member with
        | None -> None
        | Some body -> (
            let text = Json.to_string ~pretty:false body in
            match Json.member_opt json "sum" with
            | Some (Json.String sum) when String.equal sum (checksum text) -> (
                match of_json body with v -> Some v | exception _ -> None)
            | Some _ | None -> None)
      in
      match body "rec" (fun j -> Record (record_of_json j)) with
      | Some _ as r -> r
      | None -> body "model" (fun j -> Model (model_of_json j)))

let record_of_line line =
  match parse_line line with Some (Record r) -> Some r | Some (Model _) | None -> None

(* Append handle: fsync'd writes serialized by a mutex so parallel
   evaluation workers never interleave partial lines. The record count is
   handle-local — [Faultplan.Kill_after] measures records absorbed by the
   current run, not lines inherited from a previous incarnation — and
   counts evaluation records only, never model lines.

   Group commit: with [fsync_every = k > 1] the handle fsyncs once per [k]
   lines (and on [sync]/[close]) instead of once per line. Every line is
   still written whole under the mutex, so the durability contract weakens
   only in degree: a crash can lose at most the last [k - 1] fully-written
   but unsynced lines plus one torn tail line — all of which replay
   already tolerates (a lost record is just re-evaluated, a lost model
   line just rebuilds the winner, a torn line is dropped by the
   checksum). *)

type t = {
  fd : Unix.file_descr;
  mutex : Mutex.t;
  fsync_every : int;
  mutable unsynced : int;
  mutable records : int;
}

let open_ ?(fsync_every = 1) path =
  if fsync_every < 1 then invalid_arg "Journal.open_: fsync_every < 1";
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; mutex = Mutex.create (); fsync_every; unsynced = 0; records = 0 }

let appended t = t.records

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* Write one whole line under the mutex, then run [after] (still under
   it). *)
let write_line t line ~after =
  let bytes = Bytes.of_string (line ^ "\n") in
  Mutex.protect t.mutex (fun () ->
      write_all t.fd bytes;
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= t.fsync_every then begin
        Unix.fsync t.fd;
        t.unsynced <- 0
      end;
      after ())

let append t record =
  write_line t (line_of_record record) ~after:(fun () ->
      t.records <- t.records + 1;
      t.records)

let append_model t ~scope ~config payload =
  write_line t
    (checksummed "model" (model_to_json { m_scope = scope; m_config = config; payload }))
    ~after:ignore

let sync t =
  Mutex.protect t.mutex (fun () ->
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
   supersedes an earlier incarnation's). Model payloads sit in a second
   table under the same key, outside every count. *)

type replay = {
  table : (string, record) Hashtbl.t;
  models : (string, Json.t) Hashtbl.t;
  mutable loaded : int;
  mutable dropped : int;
}

let key ~scope ~config = scope ^ "\x00" ^ Bo.Serialize.config_key config

let empty_replay () =
  { table = Hashtbl.create 64; models = Hashtbl.create 4; loaded = 0; dropped = 0 }

(* Single streaming pass over a journal file into [replay]: every valid
   record is absorbed and handed to [f] in file order, model lines fill the
   model table, invalid lines are counted. [load], [records], and [read]
   are all one call to this — a caller that needs both the replay table and
   the raw record list pays for one read and one checksum pass, not two. *)
let fold_records path replay ~init ~f =
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
               match parse_line line with
               | Some (Record r) ->
                   replay.loaded <- replay.loaded + 1;
                   Hashtbl.replace replay.table
                     (key ~scope:r.scope ~config:r.config)
                     r;
                   acc := f !acc r
               | Some (Model m) ->
                   Hashtbl.replace replay.models
                     (key ~scope:m.m_scope ~config:m.m_config)
                     m.payload
               | None -> replay.dropped <- replay.dropped + 1
           done
         with End_of_file -> ()));
  !acc

let read path =
  let replay = empty_replay () in
  let raw = fold_records path replay ~init:[] ~f:(fun acc r -> r :: acc) in
  (List.rev raw, replay)

let load path =
  let replay = empty_replay () in
  fold_records path replay ~init:() ~f:(fun () _ -> ());
  replay

let find replay ~scope ~config =
  Hashtbl.find_opt replay.table (key ~scope ~config)

let find_model replay ~scope ~config =
  Hashtbl.find_opt replay.models (key ~scope ~config)

let loaded replay = replay.loaded
let dropped replay = replay.dropped

(* Deterministic union of several replay tables: tables later in the list
   supersede earlier ones on key conflicts, mirroring the later-record-wins
   rule within one file. Model lines are dropped: each journal's winner was
   trained on its own generation's data. *)
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
