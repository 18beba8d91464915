type config = {
  window_events : int;
  label_delay_s : float;
  baseline_windows : int;
  acc_drop : float;
  ph_delta : float;
  ph_lambda : float;
  cooldown_windows : int;
}

let default_config =
  {
    window_events = 250;
    label_delay_s = 5.;
    baseline_windows = 3;
    acc_drop = 0.15;
    ph_delta = 0.005;
    ph_lambda = 25.;
    cooldown_windows = 0;
  }

type window = {
  index : int;
  t_start : float;
  t_end : float;
  events : int;
  accuracy : float;
  f1 : float;
  confusion : int array array;
  throughput_eps : float;
  mean_queue_depth : float;
  max_queue_depth : int;
}

type drift = { ts : float; window : int; reason : string; value : float }

(* Float state lives in an all-float record, stored flat: a store into a
   [mutable] float field of the mixed [t] would box the value. *)
type floats = {
  mutable w_t_start : float;
  mutable w_t_end : float;
  mutable ph_mean : float;
  mutable ph_m : float;
  mutable ph_min : float;
}

type t = {
  config : config;
  n_classes : int;
  (* Pending labels: a FIFO ring of parallel arrays, [p_len] entries from
     [p_head] (wrapping). Grows by doubling; nothing is allocated per
     observed packet once it has reached its working size. *)
  mutable p_ts : float array;  (* label-arrival time *)
  mutable p_depth : int array;  (* queue depth at service *)
  mutable p_features : float array array;
  mutable p_pred : int array;
  mutable p_truth : int array;
  mutable p_head : int;
  mutable p_len : int;
  fl : floats;
  (* current window accumulators *)
  mutable w_count : int;
  mutable w_correct : int;
  mutable w_confusion : int array array;
  mutable w_queue_sum : int;
  mutable w_queue_max : int;
  mutable next_window : int;
  mutable rev_windows : window list;
  (* Page–Hinkley state over the error indicator (floats in [fl]) *)
  mutable ph_n : int;
  (* drift baseline and alarm latch *)
  mutable baseline_accs : float list;  (* oldest first, capped *)
  mutable baseline : float option;
  mutable armed : bool;
  mutable pending_alarm : drift option;
  mutable rev_drifts : drift list;
  (* Alarm hysteresis: no alarm may fire for a window below this index.
     Advanced when a pending alarm is consumed through [poll_drift]. *)
  mutable cooldown_until : int;
  mutable forced_windows : int list;  (* injected-drift window indices *)
}

(* 512 slots puts each ring array past the largest minor-heap block (256
   words), so it and every doubling are allocated directly in the major
   heap: a minor GC never copies or promotes pending labels. *)
let initial_pending = 512

let create ?(config = default_config) ~n_classes () =
  if config.window_events <= 0 then
    invalid_arg "Monitor.create: window_events <= 0";
  if config.label_delay_s < 0. then
    invalid_arg "Monitor.create: negative label_delay_s";
  if config.baseline_windows <= 0 then
    invalid_arg "Monitor.create: baseline_windows <= 0";
  if config.cooldown_windows < 0 then
    invalid_arg "Monitor.create: negative cooldown_windows";
  if n_classes <= 0 then invalid_arg "Monitor.create: n_classes <= 0";
  {
    config;
    n_classes;
    p_ts = Array.make initial_pending 0.;
    p_depth = Array.make initial_pending 0;
    p_features = Array.make initial_pending [||];
    p_pred = Array.make initial_pending 0;
    p_truth = Array.make initial_pending 0;
    p_head = 0;
    p_len = 0;
    fl = { w_t_start = 0.; w_t_end = 0.; ph_mean = 0.; ph_m = 0.; ph_min = 0. };
    w_count = 0;
    w_correct = 0;
    w_confusion = Array.make_matrix n_classes n_classes 0;
    w_queue_sum = 0;
    w_queue_max = 0;
    next_window = 0;
    rev_windows = [];
    ph_n = 0;
    baseline_accs = [];
    baseline = None;
    armed = true;
    pending_alarm = None;
    rev_drifts = [];
    cooldown_until = 0;
    forced_windows = [];
  }

(* Double the ring, unwrapping it so the oldest entry lands at index 0. *)
let grow t =
  let cap = Array.length t.p_ts in
  let unwrap a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - t.p_head in
    Array.blit a t.p_head b 0 first;
    Array.blit a 0 b first t.p_head;
    b
  in
  t.p_ts <- unwrap t.p_ts 0.;
  t.p_depth <- unwrap t.p_depth 0;
  t.p_features <- unwrap t.p_features [||];
  t.p_pred <- unwrap t.p_pred 0;
  t.p_truth <- unwrap t.p_truth 0;
  t.p_head <- 0

(* Inlined into both observers so [label_ts] is never boxed. *)
let[@inline] push t ~label_ts ~queue_depth ~features ~pred ~truth =
  if t.p_len = Array.length t.p_ts then grow t;
  let cap = Array.length t.p_ts in
  let i = t.p_head + t.p_len in
  let i = if i >= cap then i - cap else i in
  t.p_ts.(i) <- label_ts;
  t.p_depth.(i) <- queue_depth;
  t.p_features.(i) <- features;
  t.p_pred.(i) <- pred;
  t.p_truth.(i) <- truth;
  t.p_len <- t.p_len + 1

let check_classes t fn ~pred ~truth =
  if pred < 0 || pred >= t.n_classes then
    invalid_arg (fn ^ ": pred out of range");
  if truth < 0 || truth >= t.n_classes then
    invalid_arg (fn ^ ": truth out of range")

let observe t ~ts ~queue_depth ~features ~pred ~truth =
  check_classes t "Monitor.observe" ~pred ~truth;
  push t ~label_ts:(ts +. t.config.label_delay_s) ~queue_depth ~features ~pred
    ~truth

let observe_batch t ~start ~slot ~queue_depth ~n ~features ~preds ~truths =
  if
    n < 0 || n > Array.length features || n > Array.length preds
    || n > Array.length truths
  then invalid_arg "Monitor.observe_batch: n out of range";
  for i = 0 to n - 1 do
    check_classes t "Monitor.observe_batch" ~pred:preds.(i) ~truth:truths.(i)
  done;
  for i = 0 to n - 1 do
    (* The engine's completion time for the [i]th packet of the batch. *)
    let ts = start +. (float_of_int (i + 1) *. slot) in
    push t ~label_ts:(ts +. t.config.label_delay_s) ~queue_depth
      ~features:features.(i) ~pred:preds.(i) ~truth:truths.(i)
  done

(* F1 from a confusion matrix: binary (positive class 1) for two classes,
   macro otherwise — the convention of Ml.Train.evaluate_f1. *)
let f1_of_confusion c =
  let n = Array.length c in
  let class_f1 k =
    let tp = ref 0 and fp = ref 0 and fn = ref 0 in
    for i = 0 to n - 1 do
      if i = k then tp := c.(k).(k)
      else begin
        fp := !fp + c.(i).(k);
        fn := !fn + c.(k).(i)
      end
    done;
    let denom = (2 * !tp) + !fp + !fn in
    if denom = 0 then 0. else 2. *. float_of_int !tp /. float_of_int denom
  in
  if n = 2 then class_f1 1
  else begin
    let sum = ref 0. in
    for k = 0 to n - 1 do
      sum := !sum +. class_f1 k
    done;
    !sum /. float_of_int n
  end

(* A fire during the cooldown that follows a consumed alarm is swallowed
   entirely (not deferred): hysteresis means the reaction to the previous
   alarm gets [cooldown_windows] windows to show up in the metrics before
   the detector may demand another one. *)
let fire t ~ts ~window ~reason ~value =
  if window >= t.cooldown_until then begin
    let d = { ts; window; reason; value } in
    t.armed <- false;
    t.pending_alarm <- Some d;
    t.rev_drifts <- d :: t.rev_drifts
  end

let close_window t =
  let n = t.w_count in
  let accuracy = float_of_int t.w_correct /. float_of_int n in
  let span = t.fl.w_t_end -. t.fl.w_t_start in
  let w =
    {
      index = t.next_window;
      t_start = t.fl.w_t_start;
      t_end = t.fl.w_t_end;
      events = n;
      accuracy;
      f1 = f1_of_confusion t.w_confusion;
      confusion = t.w_confusion;
      throughput_eps = (if span > 0. then float_of_int n /. span else 0.);
      mean_queue_depth = float_of_int t.w_queue_sum /. float_of_int n;
      max_queue_depth = t.w_queue_max;
    }
  in
  t.rev_windows <- w :: t.rev_windows;
  t.next_window <- t.next_window + 1;
  t.w_count <- 0;
  t.w_correct <- 0;
  t.w_confusion <- Array.make_matrix t.n_classes t.n_classes 0;
  t.w_queue_sum <- 0;
  t.w_queue_max <- 0;
  (* Drift logic at window granularity. *)
  (match t.baseline with
  | None ->
      t.baseline_accs <- t.baseline_accs @ [ accuracy ];
      if List.length t.baseline_accs >= t.config.baseline_windows then begin
        let k = t.config.baseline_windows in
        let first_k = List.filteri (fun i _ -> i < k) t.baseline_accs in
        t.baseline <-
          Some (List.fold_left ( +. ) 0. first_k /. float_of_int k)
      end
  | Some b ->
      if t.armed && accuracy < b -. t.config.acc_drop then
        fire t ~ts:w.t_end ~window:w.index ~reason:"accuracy_drop"
          ~value:accuracy);
  if t.armed && List.mem w.index t.forced_windows then
    fire t ~ts:w.t_end ~window:w.index ~reason:"injected" ~value:w.accuracy

(* Fold ring slot [i] into the current window and the detectors. *)
let fold_labeled t i =
  let label_ts = t.p_ts.(i) and queue_depth = t.p_depth.(i) in
  let pred = t.p_pred.(i) and truth = t.p_truth.(i) in
  let fl = t.fl in
  if t.w_count = 0 then fl.w_t_start <- label_ts;
  fl.w_t_end <- label_ts;
  t.w_count <- t.w_count + 1;
  if pred = truth then t.w_correct <- t.w_correct + 1;
  t.w_confusion.(truth).(pred) <- t.w_confusion.(truth).(pred) + 1;
  t.w_queue_sum <- t.w_queue_sum + queue_depth;
  t.w_queue_max <- Int.max t.w_queue_max queue_depth;
  (* Page–Hinkley on the error indicator. *)
  let x = if pred = truth then 0. else 1. in
  t.ph_n <- t.ph_n + 1;
  fl.ph_mean <- fl.ph_mean +. ((x -. fl.ph_mean) /. float_of_int t.ph_n);
  fl.ph_m <- fl.ph_m +. (x -. fl.ph_mean -. t.config.ph_delta);
  (* [Stdlib.min]'s rule, written on floats so nothing boxes. *)
  if not (fl.ph_min <= fl.ph_m) then fl.ph_min <- fl.ph_m;
  if
    t.armed && t.baseline <> None
    && fl.ph_m -. fl.ph_min > t.config.ph_lambda
  then
    fire t ~ts:label_ts ~window:t.next_window ~reason:"page_hinkley"
      ~value:(fl.ph_m -. fl.ph_min);
  if t.w_count >= t.config.window_events then close_window t

(* Pop the oldest pending entry, fold it, and hand it to [f]. The slot's
   features pointer is cleared so the ring does not keep it alive. *)
let release t f =
  let i = t.p_head in
  let features = t.p_features.(i) and truth = t.p_truth.(i) in
  t.p_features.(i) <- [||];
  t.p_head <- (if i + 1 = Array.length t.p_ts then 0 else i + 1);
  t.p_len <- t.p_len - 1;
  fold_labeled t i;
  f features truth

let advance t ~now f =
  let released = ref 0 in
  while t.p_len > 0 && t.p_ts.(t.p_head) <= now do
    release t f;
    incr released
  done;
  !released

let drain t f =
  let released = t.p_len in
  while t.p_len > 0 do
    release t f
  done;
  if t.w_count > 0 then close_window t;
  released

let poll_drift t =
  let d = t.pending_alarm in
  t.pending_alarm <- None;
  (match d with
  | Some alarm ->
      t.cooldown_until <-
        Stdlib.max t.cooldown_until
          (alarm.window + t.config.cooldown_windows)
  | None -> ());
  d

let force_drift_at t ~window =
  if window < 0 then invalid_arg "Monitor.force_drift_at: negative window";
  if not (List.mem window t.forced_windows) then
    t.forced_windows <- window :: t.forced_windows

let reset_ph t =
  t.ph_n <- 0;
  t.fl.ph_mean <- 0.;
  t.fl.ph_m <- 0.;
  t.fl.ph_min <- 0.

let rebaseline t =
  reset_ph t;
  t.baseline_accs <- [];
  t.baseline <- None;
  t.armed <- true;
  t.pending_alarm <- None

let rearm t =
  reset_ph t;
  t.armed <- true;
  t.pending_alarm <- None

let windows t = List.rev t.rev_windows
let drifts t = List.rev t.rev_drifts
let baseline_accuracy t = t.baseline
