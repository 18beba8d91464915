module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset
module Scaler = Homunculus_ml.Scaler
module Metrics = Homunculus_ml.Metrics
module Mlp = Homunculus_ml.Mlp
module Train = Homunculus_ml.Train
module Svm = Homunculus_ml.Svm
module Decision_tree = Homunculus_ml.Decision_tree
module Model_ir = Homunculus_backends.Model_ir
module Inference = Homunculus_backends.Inference
module Botnet = Homunculus_netdata.Botnet
module Flow = Homunculus_netdata.Flow

type config = {
  capacity : int;
  min_buffer : int;
  holdout_frac : float;
  min_gain : float;
  max_swaps : int;
  train : Train.config;
  hidden : int array option;
}

let default_config =
  {
    capacity = 2000;
    min_buffer = 400;
    holdout_frac = 0.3;
    min_gain = 0.02;
    max_swaps = 4;
    (* no validation split here, so early stopping can't apply *)
    train = { Train.default_config with Train.patience = None };
    hidden = None;
  }

type decision = {
  ts : float;
  reason : string;
  buffer_size : int;
  incumbent_f1 : float;
  challenger_f1 : float;
  accepted : bool;
  note : string;
}

type t = {
  config : config;
  rng : Rng.t;
  n_features : int;
  n_classes : int;
  features : float array array;  (* capacity slots; only [size] are live *)
  labels : int array;
  mutable size : int;
  mutable seen : int;
  mutable accepted_swaps : int;
  mutable rev_decisions : decision list;
}

let create rng ?(config = default_config) ~n_features ~n_classes () =
  if config.capacity <= 0 then invalid_arg "Updater.create: capacity <= 0";
  if config.holdout_frac <= 0. || config.holdout_frac >= 1. then
    invalid_arg "Updater.create: holdout_frac outside (0, 1)";
  if n_features <= 0 || n_classes <= 0 then
    invalid_arg "Updater.create: non-positive dimensions";
  {
    config;
    rng;
    n_features;
    n_classes;
    features = Array.make config.capacity [||];
    labels = Array.make config.capacity 0;
    size = 0;
    seen = 0;
    accepted_swaps = 0;
    rev_decisions = [];
  }

let record t ~features ~label =
  if Array.length features <> t.n_features then
    invalid_arg "Updater.record: feature dimension mismatch";
  if label < 0 || label >= t.n_classes then
    invalid_arg "Updater.record: label out of range";
  t.seen <- t.seen + 1;
  let slot =
    if t.size < t.config.capacity then begin
      let s = t.size in
      t.size <- t.size + 1;
      s
    end
    else Rng.int t.rng t.config.capacity
  in
  t.features.(slot) <- features;
  t.labels.(slot) <- label

let size t = t.size
let seen t = t.seen
let decisions t = List.rev t.rev_decisions

let last_decision t =
  match t.rev_decisions with d :: _ -> Some d | [] -> None

let calibration_sample t ~n =
  let k = Stdlib.min n t.size in
  Array.init k (fun i -> t.features.(i))

let snapshot t =
  ( Array.init t.size (fun i -> t.features.(i)),
    Array.sub t.labels 0 t.size )

let f1_of t ~pred ~truth =
  if t.n_classes = 2 then Metrics.f1 ~pred ~truth ()
  else Metrics.macro_f1 ~n_classes:t.n_classes ~pred ~truth

let decline t ~ts ~reason ~note =
  t.rev_decisions <-
    {
      ts;
      reason;
      buffer_size = t.size;
      incumbent_f1 = Float.nan;
      challenger_f1 = Float.nan;
      accepted = false;
      note;
    }
    :: t.rev_decisions;
  None

(* Retrain the incumbent's algorithm on (x, y); the returned model consumes
   raw features. *)
let train_challenger t ~incumbent ~x ~y =
  let name = Model_ir.name incumbent in
  let dataset std_x =
    Dataset.create ~x:std_x ~y ~n_classes:t.n_classes ()
  in
  match Model_ir.algorithm incumbent with
  | "dnn" ->
      let hidden =
        match t.config.hidden with
        | Some h -> h
        | None ->
            let dims = Model_ir.dnn_layer_dims incumbent in
            Array.sub dims 1 (Array.length dims - 2)
      in
      let scaler = Scaler.fit x in
      let rng = Rng.split t.rng in
      let mlp =
        Mlp.create rng ~input_dim:t.n_features ~hidden
          ~output_dim:t.n_classes ()
      in
      ignore (Train.fit rng mlp t.config.train (dataset (Scaler.transform scaler x)));
      Some
        (Model_ir.fold_standardization ~mean:(Scaler.mean scaler)
           ~stddev:(Scaler.stddev scaler)
           (Model_ir.of_mlp ~name mlp))
  | "svm" ->
      let scaler = Scaler.fit x in
      let svm = Svm.fit (Rng.split t.rng) (dataset (Scaler.transform scaler x)) in
      Some
        (Model_ir.fold_standardization ~mean:(Scaler.mean scaler)
           ~stddev:(Scaler.stddev scaler)
           (Model_ir.of_svm ~name svm))
  | "tree" ->
      (* Trees split on raw thresholds; no standardization needed. *)
      let clf =
        Decision_tree.Classifier.fit ~x ~y ~n_classes:t.n_classes ()
      in
      Some
        (Model_ir.Tree
           {
             name;
             root = Decision_tree.Classifier.root clf;
             n_features = t.n_features;
             n_classes = t.n_classes;
           })
  | _ -> None

(* The swap decision, isolated so its edge cases are testable: a holdout F1
   that comes back NaN (degenerate holdout, broken metric) must never
   promote a challenger — [c >= nan +. g] happens to be false, but we spell
   the guard out rather than lean on IEEE comparison falling the safe way. *)
let accepts ~min_gain ~incumbent_f1 ~challenger_f1 =
  (not (Float.is_nan challenger_f1))
  && (not (Float.is_nan incumbent_f1))
  && challenger_f1 >= incumbent_f1 +. min_gain

let try_update t ~incumbent ~ts ~reason =
  if t.accepted_swaps >= t.config.max_swaps then
    decline t ~ts ~reason ~note:"swap budget exhausted"
  else if t.size < t.config.min_buffer then
    decline t ~ts ~reason ~note:"buffer below min_buffer"
  else begin
    let n = t.size in
    let perm = Rng.permutation t.rng n in
    let n_hold =
      Stdlib.max 1 (int_of_float (t.config.holdout_frac *. float_of_int n))
    in
    let n_train = n - n_hold in
    let x_hold = Array.init n_hold (fun i -> t.features.(perm.(i))) in
    let y_hold = Array.init n_hold (fun i -> t.labels.(perm.(i))) in
    let x_train = Array.init n_train (fun i -> t.features.(perm.(n_hold + i))) in
    let y_train = Array.init n_train (fun i -> t.labels.(perm.(n_hold + i))) in
    let incumbent_f1 =
      f1_of t ~pred:(Inference.predict_all incumbent x_hold) ~truth:y_hold
    in
    match train_challenger t ~incumbent ~x:x_train ~y:y_train with
    | None ->
        decline t ~ts ~reason
          ~note:
            (Printf.sprintf "no online retraining for %s models"
               (Model_ir.algorithm incumbent))
    | Some challenger ->
        let challenger_f1 =
          f1_of t ~pred:(Inference.predict_all challenger x_hold) ~truth:y_hold
        in
        let accepted =
          accepts ~min_gain:t.config.min_gain ~incumbent_f1 ~challenger_f1
        in
        if accepted then t.accepted_swaps <- t.accepted_swaps + 1;
        t.rev_decisions <-
          {
            ts;
            reason;
            buffer_size = n;
            incumbent_f1;
            challenger_f1;
            accepted;
            note = (if accepted then "swapped" else "challenger below margin");
          }
          :: t.rev_decisions;
        if accepted then Some challenger else None
  end

let bootstrap rng ?(algorithm = `Dnn) ?(hidden = [| 16 |])
    ?(train = { Train.default_config with Train.patience = None })
    ?(prefixes = [ 4; 8; 16; 32; 64; 128 ])
    ~bins ~name flows =
  if Array.length flows = 0 then invalid_arg "Updater.bootstrap: no flows";
  let xs = ref [] and ys = ref [] in
  Array.iter
    (fun f ->
      let label = Flow.label_to_int f.Flow.label in
      let add features =
        xs := features :: !xs;
        ys := label :: !ys
      in
      List.iter
        (fun k ->
          if k <= Flow.n_packets f then
            add (Botnet.flow_features bins f ~first_packets:k ()))
        prefixes;
      add (Botnet.flow_features bins f ()))
    flows;
  let x = Array.of_list (List.rev !xs) in
  let y = Array.of_list (List.rev !ys) in
  let n_features = Botnet.n_features bins in
  let scaler = Scaler.fit x in
  let std = Scaler.transform scaler x in
  let fold ir =
    Model_ir.fold_standardization ~mean:(Scaler.mean scaler)
      ~stddev:(Scaler.stddev scaler) ir
  in
  match algorithm with
  | `Dnn ->
      let mlp =
        Mlp.create rng ~input_dim:n_features ~hidden ~output_dim:2 ()
      in
      ignore
        (Train.fit rng mlp train (Dataset.create ~x:std ~y ~n_classes:2 ()));
      fold (Model_ir.of_mlp ~name mlp)
  | `Svm ->
      fold
        (Model_ir.of_svm ~name
           (Svm.fit rng (Dataset.create ~x:std ~y ~n_classes:2 ())))
  | `Tree ->
      let clf = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
      Model_ir.Tree
        {
          name;
          root = Decision_tree.Classifier.root clf;
          n_features;
          n_classes = 2;
        }
