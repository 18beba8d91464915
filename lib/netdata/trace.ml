let header = "# homunculus-trace v1"

let to_string flows =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun f ->
      Printf.bprintf buf "flow %d %s %s %d\n" f.Flow.id
        (Flow.label_to_string f.Flow.label)
        f.Flow.app (Flow.n_packets f);
      Array.iter
        (fun p -> Printf.bprintf buf "%.9f %d\n" p.Packet.ts p.Packet.size)
        f.Flow.packets)
    flows;
  Buffer.contents buf

let fail_at line_no fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Printf.sprintf "Trace: line %d: %s" line_no msg))
    fmt

let of_string text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n_lines = Array.length lines in
  if n_lines = 0 || String.trim lines.(0) <> header then
    invalid_arg "Trace: missing header line";
  let flows = ref [] in
  let rec parse pos =
    if pos >= n_lines then ()
    else if String.trim lines.(pos) = "" then parse (pos + 1)
    else begin
      let line_no = pos + 1 in
      let parts =
        String.split_on_char ' ' (String.trim lines.(pos))
        |> List.filter (fun s -> s <> "")
      in
      match parts with
      | [ "flow"; id; label; app; count ] ->
        let id =
          match int_of_string_opt id with
          | Some v -> v
          | None -> fail_at line_no "bad flow id %S" id
        in
        let label =
          match label with
          | "benign" -> Flow.Benign
          | "botnet" -> Flow.Botnet
          | other -> fail_at line_no "unknown label %S" other
        in
        let count =
          match int_of_string_opt count with
          | Some v when v > 0 -> v
          | Some _ | None -> fail_at line_no "bad packet count %S" count
        in
          if pos + count >= n_lines then
            fail_at line_no "truncated flow (%d packets declared)" count;
          let packets =
            Array.init count (fun i ->
                let pkt_line_no = line_no + 1 + i in
                let pkt_line = String.trim lines.(pos + 1 + i) in
                match
                  String.split_on_char ' ' pkt_line
                  |> List.filter (fun s -> s <> "")
                with
                | [ ts; size ] -> (
                    match (float_of_string_opt ts, int_of_string_opt size) with
                    | Some t, Some _ when not (Float.is_finite t && t >= 0.) ->
                        fail_at pkt_line_no "bad timestamp %S" ts
                    | Some ts, Some size -> Packet.make ~ts ~size
                    | _ -> fail_at pkt_line_no "bad packet %S" pkt_line)
                | _ -> fail_at pkt_line_no "bad packet %S" pkt_line)
          in
          flows := Flow.make ~id ~label ~app ~packets :: !flows;
          parse (pos + 1 + count)
      | _ -> fail_at line_no "expected a flow record, found %S" lines.(pos)
    end
  in
  parse 1;
  Array.of_list (List.rev !flows)

let save ~path flows =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string flows))

let load ~path = of_string (In_channel.with_open_text path In_channel.input_all)
