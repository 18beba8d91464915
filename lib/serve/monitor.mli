(** Online health monitoring for a serving pipeline.

    Verdicts stream in at classification time, but ground truth arrives
    late — in deployment, from an out-of-band labeling pipeline (honeypots,
    offline DPI); here, after a configurable virtual-time delay. The
    monitor buffers each served event until its label lands, folds labeled
    events into tumbling evaluation windows (accuracy, F1, confusion
    counts, throughput, queue depth), and runs two drift detectors over the
    labeled error stream:

    - {b windowed accuracy drop}: a completed window's accuracy falls more
      than [acc_drop] below the baseline established over the first
      [baseline_windows] windows after (re)start;
    - {b Page–Hinkley}: the classic sequential test on the per-event error
      indicator — cumulative deviation from the running mean exceeding
      [ph_lambda] signals a sustained upward shift in error rate.

    A fired alarm latches: no further alarms until {!rebaseline} (after a
    successful hot-swap) or {!rearm} (after a declined update) — the
    serving engine, not the detector, owns the reaction policy. On top of
    the latch, [cooldown_windows] adds hysteresis: once an alarm has been
    {e consumed} through {!poll_drift}, no new alarm may fire for a window
    whose index is within [cooldown_windows] of the consumed alarm's, even
    after a re-arm — the reaction gets that long to show up in the metrics
    before the detector may demand another one. *)

type config = {
  window_events : int;  (** labeled events per evaluation window *)
  label_delay_s : float;  (** virtual-time lag of ground truth *)
  baseline_windows : int;  (** windows averaged into the drift baseline *)
  acc_drop : float;  (** accuracy-drop alarm threshold *)
  ph_delta : float;  (** Page–Hinkley insensitivity margin *)
  ph_lambda : float;  (** Page–Hinkley alarm threshold *)
  cooldown_windows : int;
      (** alarm hysteresis: after an alarm is consumed via {!poll_drift},
          no alarm fires for a window within this many windows of it *)
}

val default_config : config
(** 250-event windows, 5 s label delay, 3 baseline windows, 0.15 accuracy
    drop, PH delta 0.005 / lambda 25, no cooldown. *)

type window = {
  index : int;  (** 0-based, over the whole run *)
  t_start : float;
  t_end : float;  (** label-arrival times of first/last member event *)
  events : int;
  accuracy : float;
  f1 : float;  (** binary F1 (positive class 1) for 2 classes, else macro *)
  confusion : int array array;  (** [confusion.(truth).(pred)] *)
  throughput_eps : float;  (** labeled events per virtual second; 0 for an
                               instantaneous window *)
  mean_queue_depth : float;
  max_queue_depth : int;
}

type drift = {
  ts : float;  (** label-arrival time of the triggering event *)
  window : int;  (** index of the window being filled when it fired *)
  reason : string;
      (** ["accuracy_drop"], ["page_hinkley"], or ["injected"] (a forced
          alarm registered by {!force_drift_at}) *)
  value : float;  (** the statistic that crossed its threshold *)
}

type t

val create : ?config:config -> n_classes:int -> unit -> t
(** @raise Invalid_argument on non-positive [window_events],
    [baseline_windows] or [n_classes], or on a negative [label_delay_s] or
    [cooldown_windows]. *)

val observe :
  t -> ts:float -> queue_depth:int -> features:float array -> pred:int ->
  truth:int -> unit
(** Record one served packet; its label becomes visible at
    [ts + label_delay_s]. [features] is kept by reference, not copied.
    @raise Invalid_argument if [pred] or [truth] is not a class index. *)

val observe_batch :
  t -> start:float -> slot:float -> queue_depth:int -> n:int ->
  features:float array array -> preds:int array -> truths:int array -> unit
(** Record a served batch: packet [i < n] completed at
    [start +. float_of_int (i + 1) *. slot] — the engine's completion-time
    expression, so the label times are bit-identical to [n] {!observe}
    calls — with [features.(i)], [preds.(i)] and [truths.(i)]; every packet
    shares [queue_depth]. The pending labels sit in a ring of parallel
    arrays that grows by doubling, so a steady stream allocates nothing.
    @raise Invalid_argument if [n] exceeds an array's length, or on a
    [pred]/[truth] out of range (then nothing is recorded). *)

val advance : t -> now:float -> (float array -> int -> unit) -> int
(** [advance t ~now f] releases every buffered event whose label has
    arrived by [now], in arrival order: each is folded into the current
    window and the drift detectors, then handed to [f features truth] — the
    engine feeds the updater's example buffer this way. Returns how many
    were released. *)

val drain : t -> (float array -> int -> unit) -> int
(** End of stream: release everything still pending exactly as {!advance}
    does, close the current partial window if non-empty, and return the
    count released. *)

val poll_drift : t -> drift option
(** The alarm raised since the last poll, if any. Reading clears the
    pending alarm but keeps the detector latched — and starts the
    [cooldown_windows] hysteresis clock from the consumed alarm's
    window. *)

val force_drift_at : t -> window:int -> unit
(** Register a forced alarm: when the window with this index closes, an
    alarm with reason ["injected"] fires regardless of the baseline — but
    still subject to the latch and the cooldown, exactly like an organic
    one. This is how a [drift@W] fault-injection entry reaches the
    detector (the serving layer knows nothing of fault plans).
    @raise Invalid_argument on a negative window. *)

val rebaseline : t -> unit
(** Forget baseline and detector state and re-arm — call after a hot-swap
    installs a new model. *)

val rearm : t -> unit
(** Re-arm the detectors without resetting the baseline — call when an
    update attempt was declined and the incumbent keeps serving. *)

val windows : t -> window list
(** Completed windows, oldest first. *)

val drifts : t -> drift list
(** Every alarm fired over the run, oldest first. *)

val baseline_accuracy : t -> float option
(** The current drift baseline, once established. *)
