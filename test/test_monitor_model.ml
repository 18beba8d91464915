(* The monitor's pending-label ring against a list model. Random
   interleavings of observe, observe_batch, advance, drain and
   poll-and-rearm run through [Monitor] and through a straightforward list
   implementation of the same contract; the released (features, truth)
   sequence (features by physical identity), the polled alarms, the closed
   windows and the drift log must agree exactly. *)

open Homunculus_serve
module Rng = Homunculus_util.Rng

module Model = struct
  type entry = {
    label_ts : float;
    depth : int;
    features : float array;
    pred : int;
    truth : int;
  }

  type t = {
    config : Monitor.config;
    n_classes : int;
    forced : int list;
    (* Pending entries as a two-list queue: [front] oldest first, then
       [back] newest first. *)
    mutable front : entry list;
    mutable back : entry list;
    mutable members : entry list;  (* current window, newest first *)
    mutable windows : Monitor.window list;  (* newest first *)
    mutable ph_n : int;
    mutable ph_mean : float;
    mutable ph_m : float;
    mutable ph_min : float;
    mutable baseline_accs : float list;
    mutable baseline : float option;
    mutable armed : bool;
    mutable alarm : Monitor.drift option;
    mutable drifts : Monitor.drift list;  (* newest first *)
    mutable cooldown_until : int;
  }

  let create config ~n_classes ~forced =
    {
      config;
      n_classes;
      forced;
      front = [];
      back = [];
      members = [];
      windows = [];
      ph_n = 0;
      ph_mean = 0.;
      ph_m = 0.;
      ph_min = 0.;
      baseline_accs = [];
      baseline = None;
      armed = true;
      alarm = None;
      drifts = [];
      cooldown_until = 0;
    }

  let observe m ~ts ~depth ~features ~pred ~truth =
    let e =
      { label_ts = ts +. m.config.label_delay_s; depth; features; pred; truth }
    in
    m.back <- e :: m.back

  let f1 c =
    let n = Array.length c in
    let class_f1 k =
      let tp = c.(k).(k) and fp = ref 0 and fn = ref 0 in
      for i = 0 to n - 1 do
        if i <> k then begin
          fp := !fp + c.(i).(k);
          fn := !fn + c.(k).(i)
        end
      done;
      let denom = (2 * tp) + !fp + !fn in
      if denom = 0 then 0. else 2. *. float_of_int tp /. float_of_int denom
    in
    if n = 2 then class_f1 1
    else
      List.fold_left ( +. ) 0. (List.init n class_f1) /. float_of_int n

  let fire m ~ts ~window ~reason ~value =
    if window >= m.cooldown_until then begin
      let d = { Monitor.ts; window; reason; value } in
      m.armed <- false;
      m.alarm <- Some d;
      m.drifts <- d :: m.drifts
    end

  let close m =
    let members = List.rev m.members in
    let n = List.length members in
    let confusion = Array.make_matrix m.n_classes m.n_classes 0 in
    List.iter
      (fun e ->
        confusion.(e.truth).(e.pred) <- confusion.(e.truth).(e.pred) + 1)
      members;
    let correct =
      List.length (List.filter (fun e -> e.pred = e.truth) members)
    in
    let first = List.hd members and last = List.hd m.members in
    let span = last.label_ts -. first.label_ts in
    let index = List.length m.windows in
    let accuracy = float_of_int correct /. float_of_int n in
    let w =
      {
        Monitor.index;
        t_start = first.label_ts;
        t_end = last.label_ts;
        events = n;
        accuracy;
        f1 = f1 confusion;
        confusion;
        throughput_eps = (if span > 0. then float_of_int n /. span else 0.);
        mean_queue_depth =
          float_of_int (List.fold_left (fun s e -> s + e.depth) 0 members)
          /. float_of_int n;
        max_queue_depth = List.fold_left (fun s e -> max s e.depth) 0 members;
      }
    in
    m.windows <- w :: m.windows;
    m.members <- [];
    (match m.baseline with
    | None ->
        m.baseline_accs <- m.baseline_accs @ [ accuracy ];
        let k = m.config.baseline_windows in
        if List.length m.baseline_accs >= k then
          m.baseline <-
            Some
              (List.fold_left ( +. ) 0.
                 (List.filteri (fun i _ -> i < k) m.baseline_accs)
              /. float_of_int k)
    | Some b ->
        if m.armed && accuracy < b -. m.config.acc_drop then
          fire m ~ts:w.t_end ~window:index ~reason:"accuracy_drop"
            ~value:accuracy);
    if m.armed && List.mem index m.forced then
      fire m ~ts:w.t_end ~window:index ~reason:"injected" ~value:accuracy

  let fold m e =
    m.members <- e :: m.members;
    let x = if e.pred = e.truth then 0. else 1. in
    m.ph_n <- m.ph_n + 1;
    m.ph_mean <- m.ph_mean +. ((x -. m.ph_mean) /. float_of_int m.ph_n);
    m.ph_m <- m.ph_m +. (x -. m.ph_mean -. m.config.ph_delta);
    m.ph_min <- min m.ph_min m.ph_m;
    if m.armed && m.baseline <> None && m.ph_m -. m.ph_min > m.config.ph_lambda
    then
      fire m ~ts:e.label_ts ~window:(List.length m.windows)
        ~reason:"page_hinkley" ~value:(m.ph_m -. m.ph_min);
    if List.length m.members >= m.config.window_events then close m

  (* Released entries, oldest first. *)
  let advance m ~now =
    let rec go acc =
      if m.front = [] then begin
        m.front <- List.rev m.back;
        m.back <- []
      end;
      match m.front with
      | e :: rest when e.label_ts <= now ->
          m.front <- rest;
          fold m e;
          go (e :: acc)
      | _ -> List.rev acc
    in
    go []

  let drain m =
    let released = advance m ~now:infinity in
    if m.members <> [] then close m;
    released

  let poll m =
    let d = m.alarm in
    m.alarm <- None;
    Option.iter
      (fun (a : Monitor.drift) ->
        m.cooldown_until <-
          max m.cooldown_until (a.window + m.config.cooldown_windows))
      d;
    d

  let rearm m =
    m.ph_n <- 0;
    m.ph_mean <- 0.;
    m.ph_m <- 0.;
    m.ph_min <- 0.;
    m.armed <- true;
    m.alarm <- None
end

type op =
  | Observe of { dt : float; depth : int; pred : int; truth : int }
  | Batch of { slot : float; depth : int; verdicts : (int * int) array }
  | Advance of float  (* clock step, then advance both to the new time *)
  | Drain
  | Poll  (* poll both; re-arm both after an alarm *)

(* Run [ops] through both implementations, failing on the first
   divergence. *)
let run ~config ~n_classes ~forced ops =
  let monitor = Monitor.create ~config ~n_classes () in
  List.iter (fun window -> Monitor.force_drift_at monitor ~window) forced;
  let model = Model.create config ~n_classes ~forced in
  let now = ref 0. and next_id = ref 0 in
  let fresh () =
    incr next_id;
    [| float_of_int !next_id |]
  in
  let check_released step expected release =
    let got = ref [] in
    let count =
      release (fun features truth -> got := (features, truth) :: !got)
    in
    let got = List.rev !got in
    if count <> List.length got then
      Alcotest.failf "op %d: returned %d, released %d" step count
        (List.length got);
    if List.length got <> List.length expected then
      Alcotest.failf "op %d: released %d, model %d" step (List.length got)
        (List.length expected);
    List.iter2
      (fun (features, truth) (e : Model.entry) ->
        if features != e.features || truth <> e.truth then
          Alcotest.failf "op %d: released entry %g differs from model's %g"
            step features.(0) e.features.(0))
      got expected
  in
  List.iteri
    (fun step op ->
      match op with
      | Observe { dt; depth; pred; truth } ->
          now := !now +. dt;
          let features = fresh () in
          Monitor.observe monitor ~ts:!now ~queue_depth:depth ~features ~pred
            ~truth;
          Model.observe model ~ts:!now ~depth ~features ~pred ~truth
      | Batch { slot; depth; verdicts } ->
          let n = Array.length verdicts in
          (* Spare capacity past [n]: only the first [n] slots are read. *)
          let features = Array.init (n + 2) (fun _ -> fresh ()) in
          let column f =
            Array.init (n + 2) (fun i -> if i < n then f verdicts.(i) else 0)
          in
          let preds = column fst and truths = column snd in
          Monitor.observe_batch monitor ~start:!now ~slot ~queue_depth:depth ~n
            ~features ~preds ~truths;
          for i = 0 to n - 1 do
            Model.observe model
              ~ts:(!now +. (float_of_int (i + 1) *. slot))
              ~depth ~features:features.(i) ~pred:preds.(i) ~truth:truths.(i)
          done;
          now := !now +. (float_of_int n *. slot)
      | Advance dt ->
          now := !now +. dt;
          let now = !now in
          check_released step (Model.advance model ~now)
            (Monitor.advance monitor ~now)
      | Drain -> check_released step (Model.drain model) (Monitor.drain monitor)
      | Poll ->
          let got = Monitor.poll_drift monitor in
          let expected = Model.poll model in
          if got <> expected then
            Alcotest.failf "op %d: polled alarms differ" step;
          if got <> None then begin
            Monitor.rearm monitor;
            Model.rearm model
          end)
    ops;
  check_released (List.length ops) (Model.drain model) (Monitor.drain monitor);
  if Monitor.windows monitor <> List.rev model.Model.windows then
    Alcotest.fail "closed windows differ";
  if Monitor.drifts monitor <> List.rev model.Model.drifts then
    Alcotest.fail "drift logs differ";
  List.length (Monitor.windows monitor)

let scenario seed =
  let rng = Rng.create seed in
  let config =
    {
      Monitor.window_events = 1 + Rng.int rng 40;
      label_delay_s = [| 0.; 0.25; 2.; 10. |].(Rng.int rng 4);
      baseline_windows = 1 + Rng.int rng 3;
      acc_drop = Rng.uniform rng 0.05 0.5;
      ph_delta = 0.005;
      ph_lambda = [| 1.; 4.; 1e9 |].(Rng.int rng 3);
      cooldown_windows = Rng.int rng 4;
    }
  in
  let n_classes = 2 + Rng.int rng 2 in
  let forced = List.init (Rng.int rng 4) (fun _ -> Rng.int rng 30) in
  let n_ops = 20 + Rng.int rng 80 in
  (* The error rate steps up halfway, so the detectors have drifts to find. *)
  let verdict i =
    let truth = Rng.int rng n_classes in
    let p_err = if 2 * i < n_ops then 0.05 else 0.5 in
    let pred =
      if Rng.float rng 1. < p_err then
        (truth + 1 + Rng.int rng (n_classes - 1)) mod n_classes
      else truth
    in
    (pred, truth)
  in
  let ops =
    List.init n_ops (fun i ->
        match Rng.int rng 20 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            let pred, truth = verdict i in
            Observe
              { dt = Rng.float rng 0.05; depth = Rng.int rng 64; pred; truth }
        | 6 | 7 | 8 | 9 | 10 ->
            Batch
              {
                slot = Rng.float rng 0.02;
                depth = Rng.int rng 64;
                verdicts = Array.init (Rng.int rng 65) (fun _ -> verdict i);
              }
        | 11 | 12 | 13 | 14 | 15 -> Advance (Rng.float rng 1.5)
        | 16 | 17 | 18 -> Poll
        | _ -> Drain)
  in
  (config, n_classes, forced, ops)

let prop_ring_matches_list_model =
  let seed_gen =
    QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)
  in
  QCheck.Test.make ~name:"pending ring = list model over random interleavings"
    ~count:300 seed_gen (fun seed ->
      let config, n_classes, forced, ops = scenario seed in
      ignore (run ~config ~n_classes ~forced ops : int);
      true)

let test_growth_with_wrapped_head () =
  (* Each round leaves a backlog, so the next round's pushes wrap past the
     end of the ring and then fill it while the head sits mid-array: the
     doubling must unwrap the entries in FIFO order. The rounds outgrow any
     plausible initial capacity. *)
  let config =
    {
      Monitor.default_config with
      Monitor.window_events = 97;
      label_delay_s = 1.;
      baseline_windows = 2;
      ph_lambda = 3.;
    }
  in
  let rounds = [ 100; 300; 700; 1500; 3100; 6300 ] in
  let ops =
    List.concat_map
      (fun n ->
        [
          Batch
            {
              slot = 1e-3;
              depth = n mod 64;
              verdicts = Array.init n (fun i -> (i mod 3 mod 2, i mod 2));
            };
          (* Release about a third of the backlog. *)
          Advance (1. -. (float_of_int n *. 1e-3 *. 2. /. 3.));
          Poll;
        ])
      rounds
  in
  let windows = run ~config ~n_classes:2 ~forced:[ 5 ] ops in
  let total = List.fold_left ( + ) 0 rounds in
  Alcotest.(check int) "every entry folded into a window"
    ((total + 96) / 97) windows

let suite =
  [
    Alcotest.test_case "growth with wrapped head" `Quick
      test_growth_with_wrapped_head;
    QCheck_alcotest.to_alcotest prop_ring_matches_list_model;
  ]
