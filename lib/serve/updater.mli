(** Model refresh on drift: retrain, validate, hand back a challenger.

    The updater keeps a recency-biased reservoir of labeled events (once
    the buffer is full, each new example overwrites a uniformly random
    slot, so older traffic decays geometrically — "recent" without a hard
    cutoff). When the monitor's drift detector fires, {!try_update}
    retrains the incumbent's algorithm from scratch on the buffer,
    standardization folded back so the challenger consumes raw features
    ({!Homunculus_backends.Model_ir.fold_standardization}), and validates
    it against the incumbent on a held-out split of the same buffer. Only a
    challenger that beats the incumbent's F1 by [min_gain] is returned —
    the Taurus runtime-update contract is that swapping weights is cheap,
    but swapping in a worse model is not. *)

type config = {
  capacity : int;  (** reservoir slots *)
  min_buffer : int;  (** decline to retrain below this many examples *)
  holdout_frac : float;  (** fraction of the buffer held out for validation *)
  min_gain : float;  (** required challenger-over-incumbent F1 margin *)
  max_swaps : int;  (** hard cap on accepted updates per run *)
  train : Homunculus_ml.Train.config;  (** DNN retraining hyperparameters —
      reuse the artifact's training configuration *)
  hidden : int array option;
      (** DNN challenger architecture; [None] inherits the incumbent's
          hidden layer sizes *)
}

val default_config : config
(** 2000 slots, min 400, 30% holdout, 0.02 F1 margin, 4 swaps max,
    {!Homunculus_ml.Train.default_config}. *)

type decision = {
  ts : float;  (** virtual time of the attempt *)
  reason : string;  (** the drift reason that triggered it *)
  buffer_size : int;
  incumbent_f1 : float;  (** on the holdout split; [nan] when declined
                             before validation *)
  challenger_f1 : float;
  accepted : bool;
  note : string;  (** why a declined attempt was declined *)
}

type t

val create :
  Homunculus_util.Rng.t -> ?config:config -> n_features:int ->
  n_classes:int -> unit -> t
(** @raise Invalid_argument on non-positive capacity or a holdout fraction
    outside (0, 1). *)

val record : t -> features:float array -> label:int -> unit
(** Offer one labeled example to the reservoir. *)

val size : t -> int
val seen : t -> int
(** Examples currently buffered / offered over the whole run. *)

val decisions : t -> decision list
(** Every update attempt, oldest first. *)

val last_decision : t -> decision option
(** The most recent update attempt — the one a [Some] from {!try_update}
    just acted on — or [None] before the first. *)

val calibration_sample : t -> n:int -> float array array
(** Up to [n] buffered feature vectors — quantization calibration for
    reloading a {!Homunculus_backends.Runtime} after a swap. *)

val snapshot : t -> float array array * int array
(** The live reservoir contents, [(features, labels)], in slot order: the
    recent labeled traffic an autopilot re-search trains and validates
    against. The feature rows are shared (not copied); the label array is
    fresh. *)

val accepts :
  min_gain:float -> incumbent_f1:float -> challenger_f1:float -> bool
(** The swap decision {!try_update} applies: the challenger must clear the
    incumbent's holdout F1 by [min_gain]. A NaN on either side declines —
    a garbage holdout measurement must never promote a challenger. *)

val try_update :
  t ->
  incumbent:Homunculus_backends.Model_ir.t ->
  ts:float ->
  reason:string ->
  Homunculus_backends.Model_ir.t option
(** Retrain and validate; [Some challenger] only when it clears the margin.
    The challenger matches the incumbent's algorithm (DNN, SVM, or tree —
    KMeans incumbents are declined: online re-clustering has no labels to
    validate against). Every call appends a {!decision}. *)

val bootstrap :
  Homunculus_util.Rng.t ->
  ?algorithm:[ `Dnn | `Svm | `Tree ] ->
  ?hidden:int array ->
  ?train:Homunculus_ml.Train.config ->
  ?prefixes:int list ->
  bins:Homunculus_netdata.Botnet.bins ->
  name:string ->
  Homunculus_netdata.Flow.t array ->
  Homunculus_backends.Model_ir.t
(** Train the {e initial} serving artifact from a labeled flow population,
    on the same feature space the {!Stream} emits: each flow contributes
    its partial flowmarkers at the given prefix lengths (default
    [4; 8; 16; 32; 64; 128], prefixes beyond the flow skipped) plus its
    full-flow marker. Defaults: a DNN with one hidden layer of 16,
    {!Homunculus_ml.Train.default_config}. Standardization is folded back,
    so the model consumes raw features. *)
