type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

(* Printing *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number_to_string v =
  (* Strict JSON has no non-finite literals, but the journal and conformance
     artifacts must survive a write -> read cycle for any float the system
     produces (diverged losses, unbounded latencies). We use the same
     extension Python's [json] module emits: NaN / Infinity / -Infinity. *)
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "Infinity"
  else if v = Float.neg_infinity then "-Infinity"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_string ?(pretty = true) t =
  let buf = Buffer.create 256 in
  let indent n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number v -> Buffer.add_string buf (number_to_string v)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (depth + 1);
            go (depth + 1) item)
          items;
        newline ();
        indent depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object members ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (key, value) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (depth + 1);
            Buffer.add_string buf (escape_string key);
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) value)
          members;
        newline ();
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* Parsing *)

exception Parse_error of { position : int; message : string }

type parser_state = { input : string; mutable pos : int }

let fail st message = raise (Parse_error { position = st.pos; message })

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_whitespace st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | Some _ | None -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> fail st (Printf.sprintf "expected '%c', found '%c'" c got)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let parse_literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.input
    && String.sub st.input st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.input then
                  fail st "truncated \\u escape";
                let hex = String.sub st.input st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> fail st "invalid \\u escape"
                in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | other -> fail st (Printf.sprintf "invalid escape '\\%c'" other));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_number_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_number_char c ->
        advance st;
        go ()
    | Some _ | None -> ()
  in
  go ();
  let text = String.sub st.input start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None ->
      st.pos <- start;
      fail st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_whitespace st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'N' -> parse_literal st "NaN" (Number Float.nan)
  | Some 'I' -> parse_literal st "Infinity" (Number Float.infinity)
  | Some '"' -> String (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_whitespace st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_whitespace st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_whitespace st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_whitespace st;
      if peek st = Some '}' then begin
        advance st;
        Object []
      end
      else begin
        let parse_member () =
          skip_whitespace st;
          let key = parse_string_body st in
          skip_whitespace st;
          expect st ':';
          let value = parse_value st in
          (key, value)
        in
        let members = ref [ parse_member () ] in
        skip_whitespace st;
        while peek st = Some ',' do
          advance st;
          members := parse_member () :: !members;
          skip_whitespace st
        done;
        expect st '}';
        Object (List.rev !members)
      end
  | Some '-'
    when st.pos + 1 < String.length st.input && st.input.[st.pos + 1] = 'I' ->
      parse_literal st "-Infinity" (Number Float.neg_infinity)
  | Some ('0' .. '9' | '-') -> Number (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string input =
  let st = { input; pos = 0 } in
  let value = parse_value st in
  skip_whitespace st;
  if st.pos <> String.length input then fail st "trailing garbage";
  value

(* Accessors *)

let member_opt t key =
  match t with
  | Object members -> List.assoc_opt key members
  | Null | Bool _ | Number _ | String _ | List _ ->
      invalid_arg "Json.member: not an object"

let member t key =
  match member_opt t key with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Json.member: missing member %S" key)

let to_float = function
  | Number v -> v
  | Null | Bool _ | String _ | List _ | Object _ ->
      invalid_arg "Json.to_float: not a number"

let to_int t =
  let v = to_float t in
  if Float.is_integer v then int_of_float v
  else invalid_arg "Json.to_int: not an integer"

let to_bool = function
  | Bool b -> b
  | Null | Number _ | String _ | List _ | Object _ ->
      invalid_arg "Json.to_bool: not a boolean"

let to_list = function
  | List items -> items
  | Null | Bool _ | Number _ | String _ | Object _ ->
      invalid_arg "Json.to_list: not a list"

let get_string = function
  | String s -> s
  | Null | Bool _ | Number _ | List _ | Object _ ->
      invalid_arg "Json.get_string: not a string"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  (* [Float.equal] (not [=]) so NaN payloads compare equal to themselves and
     round-trip properties hold for non-finite numbers. *)
  | Number x, Number y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Object xs, Object ys ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let xs = sort xs and ys = sort ys in
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | (Null | Bool _ | Number _ | String _ | List _ | Object _), _ -> false
