module Dataset = Homunculus_ml.Dataset
module Scaler = Homunculus_ml.Scaler

type metric = F1 | Accuracy | V_measure

let metric_to_string = function
  | F1 -> "f1"
  | Accuracy -> "accuracy"
  | V_measure -> "v_measure"

type algorithm = Dnn | Kmeans | Svm | Tree

let algorithm_to_string = function
  | Dnn -> "dnn"
  | Kmeans -> "kmeans"
  | Svm -> "svm"
  | Tree -> "tree"

let algorithm_of_string = function
  | "dnn" -> Dnn
  | "kmeans" -> Kmeans
  | "svm" -> Svm
  | "tree" -> Tree
  | s -> invalid_arg (Printf.sprintf "Model_spec.algorithm_of_string: %S" s)

let all_algorithms = [ Dnn; Kmeans; Svm; Tree ]

type data = { train : Dataset.t; test : Dataset.t }

let data ~train ~test =
  if train.Dataset.feature_names <> test.Dataset.feature_names then
    invalid_arg "Model_spec.data: train/test feature schema mismatch";
  if train.Dataset.n_classes <> test.Dataset.n_classes then
    invalid_arg "Model_spec.data: train/test class count mismatch";
  { train; test }

type standardized = { scaler : Scaler.t; train : Dataset.t; test : Dataset.t }

type t = {
  name : string;
  metric : metric;
  algorithms : algorithm list;
  loader : unit -> data;
  mutable cache : data option;
  mutable standardized_cache : standardized option;
}

let make ~name ?(metric = F1) ?(algorithms = all_algorithms) ~loader () =
  if name = "" then invalid_arg "Model_spec.make: empty name";
  if algorithms = [] then invalid_arg "Model_spec.make: empty algorithm list";
  { name; metric; algorithms; loader; cache = None; standardized_cache = None }

let name t = t.name
let metric t = t.metric
let algorithms t = t.algorithms

let load t =
  match t.cache with
  | Some d -> d
  | None ->
      let d = t.loader () in
      t.cache <- Some d;
      d

let standardize_lock = Mutex.create ()

(* Built under a lock the first time, like [Dataset.target_matrix]: pool
   workers evaluating the spec's first candidates may all ask at once, and
   every one of them must get the same splits. *)
let standardized t =
  match t.standardized_cache with
  | Some s -> s
  | None ->
      Mutex.protect standardize_lock (fun () ->
          match t.standardized_cache with
          | Some s -> s (* lost the race; reuse the winner's splits *)
          | None ->
              let data = load t in
              let scaler, train = Scaler.fit_dataset data.train in
              let test = Scaler.apply_dataset scaler data.test in
              let s = { scaler; train; test } in
              t.standardized_cache <- Some s;
              s)

let feature_names t = (load t).train.Dataset.feature_names
