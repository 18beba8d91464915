(** Alchemy's [Model] construct (paper §3.1, Table 1): the user's declarative
    statement of *what* to learn — an objective metric, an optional algorithm
    shortlist, and a data loader — with no model architecture and no
    hyperparameters. *)

type metric = F1 | Accuracy | V_measure

val metric_to_string : metric -> string

type algorithm = Dnn | Kmeans | Svm | Tree

val algorithm_to_string : algorithm -> string

val algorithm_of_string : string -> algorithm
(** Inverse of {!algorithm_to_string} — search scopes (and so journal
    records and dispatched batches) name algorithms by this string.
    @raise Invalid_argument on an unknown name. *)

val all_algorithms : algorithm list

type data = {
  train : Homunculus_ml.Dataset.t;
  test : Homunculus_ml.Dataset.t;
}

val data : train:Homunculus_ml.Dataset.t -> test:Homunculus_ml.Dataset.t -> data
(** @raise Invalid_argument when train and test schemas disagree. *)

type t

val make :
  name:string ->
  ?metric:metric ->
  ?algorithms:algorithm list ->
  loader:(unit -> data) ->
  unit ->
  t
(** Defaults: [metric = F1], [algorithms = all_algorithms] ("if no algorithm
    is listed, Homunculus selects the best performing algorithm from among
    the entire list of supported algorithms"). The loader runs lazily, once;
    the result is cached — mirroring the [@DataLoader] decorator. *)

val name : t -> string
val metric : t -> metric
val algorithms : t -> algorithm list
val load : t -> data

type standardized = {
  scaler : Homunculus_ml.Scaler.t;  (** fitted on the training split *)
  train : Homunculus_ml.Dataset.t;  (** the training split, standardized *)
  test : Homunculus_ml.Dataset.t;  (** the test split, standardized *)
}

val standardized : t -> standardized
(** The loaded splits standardized by a {!Homunculus_ml.Scaler} fitted on
    the training split, built on first use and cached beside {!load}'s
    data: every later call returns the physically same record, so a search
    fits the scaler once per spec, not once per candidate. Thread-safe:
    domains that race on the first call all get the one record built. The
    splits must not be mutated. {!load} does not build it. *)

val feature_names : t -> string array
(** Feature schema of the (loaded) training data. *)
