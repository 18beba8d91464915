module Rng = Homunculus_util.Rng
module Mat = Homunculus_tensor.Mat

type engine = Batched | Per_sample

type config = {
  epochs : int;
  batch_size : int;
  optimizer : Optimizer.algo;
  patience : int option;
  shuffle_each_epoch : bool;
  lr_decay_per_epoch : float;
  engine : engine;
}

let default_config =
  {
    epochs = 30;
    batch_size = 32;
    optimizer = Optimizer.adam ~lr:1e-3 ();
    patience = Some 5;
    shuffle_each_epoch = true;
    lr_decay_per_epoch = 1.;
    engine = Batched;
  }

type history = {
  train_loss : float array;
  val_metric : float array;
  epochs_run : int;
}

let f1_of (d : Dataset.t) pred =
  if d.Dataset.n_classes = 2 then Metrics.f1 ~pred ~truth:d.Dataset.y ()
  else Metrics.macro_f1 ~n_classes:d.Dataset.n_classes ~pred ~truth:d.Dataset.y

let evaluate_f1 model (d : Dataset.t) = f1_of d (Mlp.predict_all model d.Dataset.x)

let evaluate_accuracy model (d : Dataset.t) =
  let pred = Mlp.predict_all model d.Dataset.x in
  Metrics.accuracy ~pred ~truth:d.Dataset.y

let fit rng model config ?validation ?on_epoch (train : Dataset.t) =
  if config.epochs <= 0 then invalid_arg "Train.fit: epochs <= 0";
  if config.batch_size <= 0 then invalid_arg "Train.fit: batch_size <= 0";
  let n = Dataset.n_samples train in
  if n = 0 then invalid_arg "Train.fit: empty training set";
  (* Early stopping monitors the validation metric; without a validation set
     it could never fire, so passing patience without one is a config bug. *)
  (match (config.patience, validation) with
  | Some _, None -> invalid_arg "Train.fit: patience requires a validation set"
  | (Some _, Some _ | None, _) -> ());
  let input_dim = Dataset.n_features train in
  let n_classes = train.Dataset.n_classes in
  let params = Mlp.parameter_buffers model in
  let grads = Mlp.gradient_buffers model in
  let sizes = Array.map Array.length params in
  let opt = Optimizer.create config.optimizer sizes in
  let targets = Dataset.target_matrix train in
  (* Workspaces are created once per batch shape and reused for every step of
     every epoch; an epoch sees at most two shapes (full and remainder). *)
  let ws_cache = ref [] in
  let ws_for batch =
    match List.assoc_opt batch !ws_cache with
    | Some ws -> ws
    | None ->
        let ws = Mlp.make_workspace model ~batch in
        ws_cache := (batch, ws) :: !ws_cache;
        ws
  in
  (* The validation split is scored every epoch into one verdict buffer,
     window by window through the first batch's training workspace (free
     between epochs); [predict_all_into]'s verdicts are [predict_all]'s
     bits. *)
  let score_validation =
    Option.map
      (fun (v : Dataset.t) ->
        let pred = Array.make (Dataset.n_samples v) 0 in
        fun () ->
          Mlp.predict_all_into model
            (ws_for (Stdlib.min n config.batch_size))
            ~src:v.Dataset.x ~dst:pred;
          f1_of v pred)
      validation
  in
  let target_row = Array.make n_classes 0. in
  let order = Array.init n (fun i -> i) in
  let train_losses = ref [] in
  let val_metrics = ref [] in
  let best_val = ref neg_infinity in
  let best_params = ref None in
  let stale = ref 0 in
  let epochs_run = ref 0 in
  (try
     for _epoch = 1 to config.epochs do
       incr epochs_run;
       if config.shuffle_each_epoch then Rng.shuffle_in_place rng order;
       let epoch_loss = ref 0. in
       let pos = ref 0 in
       while !pos < n do
         let batch_end = min n (!pos + config.batch_size) in
         let batch_n = batch_end - !pos in
         Mlp.zero_grads model;
         (match config.engine with
         | Per_sample ->
             (* Reference oracle: exactly the pre-batching training loop. *)
             for k = !pos to batch_end - 1 do
               let i = order.(k) in
               Array.blit targets.Mat.data (i * n_classes) target_row 0
                 n_classes;
               epoch_loss :=
                 !epoch_loss
                 +. Mlp.train_sample model ~x:train.Dataset.x.(i)
                      ~target:target_row
             done
         | Batched ->
             let ws = ws_for batch_n in
             (* Manual gather loops: rows here are a handful of floats, where
                an [Array.blit] call costs more than the copy itself. *)
             let xd = ws.Mlp.x.Mat.data and td = ws.Mlp.target.Mat.data in
             let tgd = targets.Mat.data in
             for k = 0 to batch_n - 1 do
               let i = order.(!pos + k) in
               let src = train.Dataset.x.(i) in
               let xbase = k * input_dim in
               for j = 0 to input_dim - 1 do
                 Array.unsafe_set xd (xbase + j) (Array.unsafe_get src j)
               done;
               let tsrc = i * n_classes and tdst = k * n_classes in
               for j = 0 to n_classes - 1 do
                 Array.unsafe_set td (tdst + j)
                   (Array.unsafe_get tgd (tsrc + j))
               done
             done;
             Mlp.train_batch model ws;
             (* Fold row losses in sample order so the reported epoch loss is
                bit-identical to the per-sample path's running sum. *)
             for k = 0 to batch_n - 1 do
               epoch_loss := !epoch_loss +. ws.Mlp.row_loss.(k)
             done);
         (* Mean gradient: the 1/batch scale is folded into the optimizer
            read (bit-identical to a separate [scale_grads] sweep). *)
         Optimizer.step opt ~grad_scale:(1. /. float_of_int batch_n) ~params
           ~grads;
         pos := batch_end
       done;
       train_losses := (!epoch_loss /. float_of_int n) :: !train_losses;
       if config.lr_decay_per_epoch <> 1. then
         Optimizer.set_learning_rate opt
           (Optimizer.current_learning_rate opt *. config.lr_decay_per_epoch);
       let metric_opt = Option.map (fun score -> score ()) score_validation in
       let patience_stop = ref false in
       (match metric_opt with
       | None -> ()
       | Some metric ->
           val_metrics := metric :: !val_metrics;
           if metric > !best_val then begin
             best_val := metric;
             best_params := Some (Array.map Array.copy params);
             stale := 0
           end
           else begin
             incr stale;
             match config.patience with
             | Some p when !stale >= p -> patience_stop := true
             | Some _ | None -> ()
           end);
       (* The rung hook sees the epoch's metric even when patience is about
          to stop the run, so a scheduler's accounting stays complete. *)
       (match on_epoch with
       | Some hook -> (
           match
             hook ~epoch:!epochs_run
               ~loss:(!epoch_loss /. float_of_int n)
               ~metric:metric_opt
           with
           | `Stop -> raise Exit
           | `Continue -> ())
       | None -> ());
       if !patience_stop then raise Exit
     done
   with Exit -> ());
  (* Restore the best validation checkpoint, if we tracked one. *)
  (match !best_params with
  | Some saved ->
      Array.iteri
        (fun b src -> Array.blit src 0 params.(b) 0 (Array.length src))
        saved
  | None -> ());
  {
    train_loss = Array.of_list (List.rev !train_losses);
    val_metric = Array.of_list (List.rev !val_metrics);
    epochs_run = !epochs_run;
  }
