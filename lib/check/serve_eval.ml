module Runtime = Homunculus_backends.Runtime
module Engine = Homunculus_serve.Engine

type mismatch = {
  index : int;
  epoch : int;
  engine_verdict : int;
  replay_verdict : int;
}

type replay = { replayed : int; mismatches : mismatch list }

let replay_quantized engine =
  let tr = Engine.trace engine in
  let rts = Engine.epoch_runtimes engine in
  if Array.length rts = 0 then
    invalid_arg
      "Serve_eval.replay_quantized: engine holds no runtime (Reference mode?)";
  let wss = Array.map Runtime.make_workspace rts in
  let mismatches = ref [] in
  (* Walk backwards so the mismatch list comes out in service order. *)
  for i = tr.Engine.n - 1 downto 0 do
    let epoch = tr.Engine.epochs.(i) in
    if epoch < 0 || epoch >= Array.length rts then
      invalid_arg "Serve_eval.replay_quantized: trace epoch out of range";
    let rt = rts.(epoch) and ws = wss.(epoch) in
    Runtime.encode_into rt ws tr.Engine.xs.(i);
    let v = Runtime.lookup rt ws in
    if v <> tr.Engine.verdicts.(i) then
      mismatches :=
        {
          index = i;
          epoch;
          engine_verdict = tr.Engine.verdicts.(i);
          replay_verdict = v;
        }
        :: !mismatches
  done;
  { replayed = tr.Engine.n; mismatches = !mismatches }

let sweep_mismatches engines =
  List.fold_left
    (fun acc engine ->
      if Engine.current_runtime engine = None then acc
      else acc + List.length (replay_quantized engine).mismatches)
    0 engines

type agreement = { compared : int; agreed : int; rate : float }

let agreement a b =
  if a.Engine.n <> b.Engine.n then
    invalid_arg "Serve_eval.agreement: traces cover different packet counts";
  let agreed = ref 0 in
  for i = 0 to a.Engine.n - 1 do
    if a.Engine.verdicts.(i) = b.Engine.verdicts.(i) then incr agreed
  done;
  {
    compared = a.Engine.n;
    agreed = !agreed;
    rate =
      (if a.Engine.n = 0 then 1.
       else float_of_int !agreed /. float_of_int a.Engine.n);
  }
