open Homunculus_alchemy
open Homunculus_backends
open Homunculus_ml
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng

type artifact = {
  algorithm : Model_spec.algorithm;
  config : Bo.Config.t;
  model_ir : Model_ir.t;
  verdict : Resource.verdict;
  objective : float;
  pruned : bool;
  epochs_trained : int;
}

(* Process-wide accounting of where exact evaluations spend their time.
   Mutex-guarded (evaluations run on pool workers); kept out of History
   metadata so enabling the counters cannot perturb a search's determinism.
   The [estimates] count is one per [Platform.estimate] call made on a
   trained model; a candidate the shape check rejects is not charged. *)
module Timing = struct
  type snapshot = {
    evaluations : int;
    estimates : int;
    train_s : float;
    lower_s : float;
    estimate_s : float;
  }

  let lock = Mutex.create ()
  let evaluations = ref 0
  let estimates = ref 0
  let train_s = ref 0.
  let lower_s = ref 0.
  let estimate_s = ref 0.

  let reset () =
    Mutex.lock lock;
    evaluations := 0;
    estimates := 0;
    train_s := 0.;
    lower_s := 0.;
    estimate_s := 0.;
    Mutex.unlock lock

  let snapshot () =
    Mutex.lock lock;
    let s =
      {
        evaluations = !evaluations;
        estimates = !estimates;
        train_s = !train_s;
        lower_s = !lower_s;
        estimate_s = !estimate_s;
      }
    in
    Mutex.unlock lock;
    s

  let charge ~train ~lower ~estimate =
    Mutex.lock lock;
    incr evaluations;
    incr estimates;
    train_s := !train_s +. train;
    lower_s := !lower_s +. lower;
    estimate_s := !estimate_s +. estimate;
    Mutex.unlock lock
end

let metric_value metric ~n_classes ~pred ~truth =
  match metric with
  | Model_spec.F1 ->
      if n_classes = 2 then Metrics.f1 ~pred ~truth ()
      else Metrics.macro_f1 ~n_classes ~pred ~truth
  | Model_spec.Accuracy -> Metrics.accuracy ~pred ~truth
  | Model_spec.V_measure -> Metrics.v_measure ~pred ~truth ()

let train_dnn rng ?prune ?guard config ~train ~test =
  let hidden = Space_builder.hidden_layers_of_config config in
  let lr = Bo.Config.get_float config "learning_rate" in
  let batch_idx = Bo.Config.get_index config "batch_size" in
  let batch_size = int_of_float Space_builder.batch_sizes.(batch_idx) in
  let epochs = Bo.Config.get_int config "epochs" in
  let act_idx = Bo.Config.get_index config "activation" in
  let weight_decay = Bo.Config.get_float config "weight_decay" in
  let lr_decay = [| 0.9; 0.97; 1.0 |].(Bo.Config.get_index config "lr_decay") in
  let hidden_act =
    match act_idx with 0 -> Activation.Relu | _ -> Activation.Tanh
  in
  let input_dim = Dataset.n_features train in
  let mlp =
    Mlp.create rng ~input_dim ~hidden
      ~output_dim:train.Dataset.n_classes ~hidden_act ()
  in
  let fit_set, val_set = Dataset.split rng ~train_frac:0.8 train in
  let train_config =
    {
      Train.default_config with
      Train.epochs;
      batch_size;
      optimizer = Optimizer.adam ~lr ~weight_decay ();
      lr_decay_per_epoch = lr_decay;
    }
  in
  (* Rung pruning: when the candidate's epoch index hits a rung (a fixed
     fraction of its own budget), report the validation metric to the shared
     scheduler and stop if it falls below the threshold frozen for this
     proposal batch. Rungs that coincide with the full budget save nothing
     and are skipped. *)
  let was_pruned = ref false in
  let asha_hook =
    match prune with
    | None -> None
    | Some sched ->
        let rungs = Bo.Asha.rungs_for sched ~budget:epochs in
        Some
          (fun ~epoch ~metric ->
            match metric with
            | None -> `Continue
            | Some m ->
                Array.iteri
                  (fun r rung_epoch ->
                    if rung_epoch = epoch && rung_epoch < epochs then begin
                      Bo.Asha.record sched ~rung:r ~metric:m;
                      match Bo.Asha.decide sched ~rung:r ~metric:m with
                      | `Stop -> was_pruned := true
                      | `Continue -> ()
                    end)
                  rungs;
                if !was_pruned then `Stop else `Continue)
  in
  let on_epoch =
    (* The supervisor's guard runs before the rung scheduler: a diverging
       candidate aborts (by raising) rather than reporting a garbage metric
       to the shared rungs. *)
    match (guard, asha_hook) with
    | None, None -> None
    | guard, asha_hook ->
        Some
          (fun ~epoch ~loss ~metric ->
            (match guard with
            | Some check -> check ~epoch ~loss ~metric
            | None -> ());
            match asha_hook with
            | Some hook -> hook ~epoch ~metric
            | None -> `Continue)
  in
  let history =
    Train.fit rng mlp train_config ~validation:val_set ?on_epoch fit_set
  in
  (match prune with
  | Some sched -> Bo.Asha.note_epochs sched history.Train.epochs_run
  | None -> ());
  let pred = Mlp.predict_all mlp test.Dataset.x in
  (Model_ir.of_mlp ~name:"model" mlp, pred, !was_pruned,
   history.Train.epochs_run)

let train_kmeans rng config ~train ~test =
  let k = Bo.Config.get_int config "k" in
  let km = Kmeans.fit rng ~k ~max_iter:100 ~n_init:8 train.Dataset.x in
  let pred = Kmeans.predict_all km test.Dataset.x in
  (Model_ir.of_kmeans ~name:"model" km, pred)

let train_svm rng config ~train ~test =
  let lambda = Bo.Config.get_float config "lambda" in
  let epochs = Bo.Config.get_int config "epochs" in
  let svm = Svm.fit rng ~lambda ~epochs train in
  let pred = Svm.predict_all svm test.Dataset.x in
  (Model_ir.of_svm ~name:"model" svm, pred)

let train_tree rng config ~train ~test =
  let params =
    {
      Decision_tree.max_depth = Bo.Config.get_int config "max_depth";
      min_samples_leaf = Bo.Config.get_int config "min_samples_leaf";
      m_try = None;
    }
  in
  let tree =
    Decision_tree.Classifier.fit ~rng ~params ~x:train.Dataset.x
      ~y:train.Dataset.y ~n_classes:train.Dataset.n_classes ()
  in
  let pred = Decision_tree.Classifier.predict_all tree test.Dataset.x in
  let ir =
    Model_ir.Tree
      {
        name = "model";
        root = Decision_tree.Classifier.root tree;
        n_features = Dataset.n_features train;
        n_classes = train.Dataset.n_classes;
      }
  in
  (ir, pred)

(* A zero-weight model with the candidate's exact shape, for the algorithms
   whose verdict that shape decides. Every backend estimator charges a DNN
   for its layer dimensions and a k-means model for k x input width, and
   none reads a weight, so the skeleton's verdict is the trained model's.
   SVMs and trees have none: Tofino drops the table of an all-zero SVM
   weight column, and a tree's shape is learned from the data. *)
let skeleton_ir algorithm ~name ~input_dim ~n_classes config =
  match algorithm with
  | Model_spec.Dnn ->
      let hidden = Space_builder.hidden_layers_of_config config in
      let dims =
        Array.concat [ [| input_dim |]; hidden; [| n_classes |] ]
      in
      let act =
        match Bo.Config.get_index config "activation" with
        | 0 -> "relu"
        | _ -> "tanh"
      in
      let layers =
        Array.init
          (Array.length dims - 1)
          (fun i ->
            {
              Model_ir.n_in = dims.(i);
              n_out = dims.(i + 1);
              activation =
                (if i = Array.length dims - 2 then "linear" else act);
              weights = Array.make_matrix dims.(i + 1) dims.(i) 0.;
              biases = Array.make dims.(i + 1) 0.;
            })
      in
      Some (Model_ir.Dnn { name; layers })
  | Model_spec.Kmeans ->
      let k = Bo.Config.get_int config "k" in
      Some (Model_ir.Kmeans { name; centroids = Array.make_matrix k input_dim 0. })
  | Model_spec.Svm | Model_spec.Tree -> None

(* The shape check: a DNN or k-means candidate whose skeleton cannot fit
   would be judged infeasible after training too, so it is never trained. *)
let infeasible_shape platform spec algorithm config ~(train : Dataset.t) =
  match
    skeleton_ir algorithm ~name:(Model_spec.name spec)
      ~input_dim:(Dataset.n_features train) ~n_classes:train.Dataset.n_classes
      config
  with
  | None -> None
  | Some ir ->
      let verdict = Platform.estimate platform ir in
      if verdict.Resource.feasible then None else Some (ir, verdict)

let evaluate rng ?prune ?guard platform spec algorithm config =
  let data = Model_spec.load spec in
  match
    infeasible_shape platform spec algorithm config ~train:data.Model_spec.train
  with
  | Some (model_ir, verdict) ->
      {
        algorithm;
        config;
        model_ir;
        verdict;
        objective = 0.;
        pruned = false;
        epochs_trained = 0;
      }
  | None ->
      let scaler, train = Scaler.fit_dataset data.Model_spec.train in
      let test = Scaler.apply_dataset scaler data.Model_spec.test in
      let t0 = Unix.gettimeofday () in
      let model_ir, pred, pruned, epochs_trained =
        match algorithm with
        | Model_spec.Dnn -> train_dnn rng ?prune ?guard config ~train ~test
        | Model_spec.Kmeans ->
            let ir, pred = train_kmeans rng config ~train ~test in
            (ir, pred, false, 0)
        | Model_spec.Svm ->
            let ir, pred = train_svm rng config ~train ~test in
            (ir, pred, false, 0)
        | Model_spec.Tree ->
            let ir, pred = train_tree rng config ~train ~test in
            (ir, pred, false, 0)
      in
      let t1 = Unix.gettimeofday () in
      let model_ir = Model_ir.with_name model_ir (Model_spec.name spec) in
      (* Deployed pipelines parse raw packet features; absorb the
         training-time standardization into the model so the artifact is
         self-contained. *)
      let model_ir =
        Model_ir.fold_standardization ~mean:(Scaler.mean scaler)
          ~stddev:(Scaler.stddev scaler) model_ir
      in
      let objective =
        metric_value (Model_spec.metric spec) ~n_classes:test.Dataset.n_classes
          ~pred ~truth:test.Dataset.y
      in
      let t2 = Unix.gettimeofday () in
      let verdict = Platform.estimate platform model_ir in
      let t3 = Unix.gettimeofday () in
      Timing.charge ~train:(t1 -. t0) ~lower:(t2 -. t1) ~estimate:(t3 -. t2);
      { algorithm; config; model_ir; verdict; objective; pruned; epochs_trained }

let compare_artifacts a b =
  (* Total order: feasible before infeasible, then fully trained before
     pruned (a pruned artifact's objective is a partial-budget metric, not
     comparable with a full run's), then higher objective, then the
     lexicographically smaller configuration. Totality is what makes a
     running maximum independent of evaluation order, which the parallel
     search relies on for determinism. *)
  let fc =
    Bool.compare b.verdict.Resource.feasible a.verdict.Resource.feasible
  in
  if fc <> 0 then fc
  else
    let pc = Bool.compare a.pruned b.pruned in
    if pc <> 0 then pc
    else
      let oc = Float.compare b.objective a.objective in
      if oc <> 0 then oc
      else
        String.compare
          (Bo.Config.to_string a.config)
          (Bo.Config.to_string b.config)

let better_artifact current candidate =
  match current with
  | None -> Some candidate
  | Some best ->
      if compare_artifacts candidate best < 0 then Some candidate else Some best

let to_bo_evaluation artifact =
  let usage_meta =
    List.map
      (fun u -> (u.Resource.resource, u.Resource.used))
      artifact.verdict.Resource.usages
  in
  {
    Bo.Optimizer.objective = artifact.objective;
    feasible = artifact.verdict.Resource.feasible;
    pruned = artifact.pruned;
    metadata =
      [
        ("params", float_of_int (Model_ir.param_count artifact.model_ir));
        ("latency_ns", artifact.verdict.Resource.latency_ns);
        ("throughput_gpps", artifact.verdict.Resource.throughput_gpps);
        ("epochs_trained", float_of_int artifact.epochs_trained);
      ]
      @ usage_meta;
  }
