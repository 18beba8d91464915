(* Hand-tuned baseline models (paper §5, "Baseline Applications"): fixed
   architectures taken from the prior work the paper compares against,
   trained with a fixed, conservative recipe — exactly what a careful human
   would ship without platform-aware design-space exploration.

   - AD: the Taurus/WINCOM anomaly-detection DNN (two small hidden layers).
   - TC: the hand-written DNN baseline the paper builds for IIsy's task,
     "3 hidden layers (10, 10, 5 neurons)".
   - BD: the FlowLens-derived model, "4 hidden layers of 10 neurons each". *)

open Homunculus_alchemy
open Homunculus_backends
open Homunculus_ml
module Rng = Homunculus_util.Rng

type result = {
  name : string;
  model_ir : Model_ir.t;
  f1 : float;  (** on the spec's test split, in [0, 1] *)
  params : int;
}

(* Each baseline keeps the training recipe of the work it came from — fixed
   once by its authors, with no platform-aware tuning. *)
let ad_recipe =
  (* Early DNN-IDS practice: plain SGD, short budget. *)
  {
    Train.epochs = 12;
    batch_size = 64;
    optimizer = Optimizer.sgd ~lr:0.01 ();
    patience = None;
    shuffle_each_epoch = true;
    lr_decay_per_epoch = 1.;
    engine = Train.Batched;
  }

let tc_recipe =
  (* The hand-written IIsy-comparison DNN: plain SGD, short budget. *)
  { ad_recipe with Train.epochs = 15 }

let bd_recipe =
  (* FlowLens-era training: Adam with early stopping disabled. *)
  { Train.default_config with Train.patience = None }

let train_fixed ~name ~hidden ~recipe spec =
  let { Model_spec.train; test; _ } = Model_spec.standardized spec in
  let input_dim = Dataset.n_features train in
  let mlp =
    Mlp.create
      (Rng.create Bench_config.seed)
      ~input_dim ~hidden ~output_dim:train.Dataset.n_classes ()
  in
  let _ = Train.fit (Rng.create (Bench_config.seed + 9)) mlp recipe train in
  let f1 = Train.evaluate_f1 mlp test in
  let model_ir = Model_ir.of_mlp ~name mlp in
  { name; model_ir; f1; params = Model_ir.param_count model_ir }

let ad () =
  train_fixed ~name:"Base-AD" ~hidden:[| 12; 8 |] ~recipe:ad_recipe (Apps.ad_spec ())

let tc () =
  train_fixed ~name:"Base-TC" ~hidden:[| 10; 10; 5 |] ~recipe:tc_recipe
    (Apps.tc_spec ())

let bd () =
  train_fixed ~name:"Base-BD" ~hidden:[| 10; 10; 10; 10 |] ~recipe:bd_recipe
    (Apps.bd_spec ())
