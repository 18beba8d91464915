(** The Homunculus driver: Alchemy program in, searched + trained + mapped
    models and backend code out (paper Fig. 2, the [homunculus.generate]
    call of Fig. 3). *)

open Homunculus_alchemy
module Bo = Homunculus_bo

exception No_feasible_model of string
(** Raised when candidate filtering leaves no algorithm, or the whole search
    finishes without one feasible configuration ("... until the final output
    meets the constraints, or no feasible solution exists"). *)

type options = {
  seed : int;
  bo_settings : Bo.Optimizer.settings;
  emit_code : bool;
  fusion_threshold : float option;
      (** when set, adjacent parallel models with enough feature overlap are
          fused before search (paper §3.2.5); [None] disables the pass *)
  prune : Bo.Asha.settings option;
      (** when set, epoch-iterative candidates (DNNs) train under a
          successive-halving rung scheduler: weak configurations stop at a
          fraction of their epoch budget and enter the BO history as pruned
          partial observations. Deterministic for a fixed seed at any worker
          count (see {!Bo.Asha}). [None] trains every candidate to its full
          budget. *)
  supervisor : Homunculus_resilience.Supervisor.t option;
      (** when set, every candidate evaluation runs under the fault
          supervisor: trainer divergence, backend exceptions, and budget
          exhaustion become tagged infeasible history entries instead of
          aborting the search; outcomes are journaled durably when the
          supervisor carries a journal, and previously recorded outcomes
          replay without re-training (deterministic resume). The winning
          artifact is then selected from the history
          ({!Bo.History.best_entry}) and rebuilt from its config-derived
          seed if the evaluation was replayed. [None] lets exceptions
          propagate, as before. *)
  dispatch :
    (scope:string -> (int * Bo.Config.t) array -> Bo.Optimizer.evaluation array)
    option;
      (** when set, every batch of exact evaluations is handed to this hook
          instead of the in-process pool (e.g. to time or trace each
          evaluation through {!worker_eval}); the hook returns the
          evaluations in batch order. The winning artifact is then picked
          from the history and rebuilt locally, as on a resumed search.
          Incompatible with [prune] (ASHA's per-batch rung thresholds live
          in the evaluation callback the hook bypasses) — {!search_model}
          raises [Invalid_argument] on the combination. [None] evaluates on
          the pool, as before. *)
}

val default_options : options
(** seed 42, default BO settings, code emission on, fusion off, pruning
    off, no supervisor. *)

val quick_options : options
(** A small-budget variant (5 warm-up + 10 guided) for tests and examples. *)

type model_result = {
  spec : Model_spec.t;
  artifact : Evaluator.artifact;  (** the winning configuration *)
  history : Bo.History.t;  (** full log of the winning algorithm's search *)
  histories : (Model_spec.algorithm * Bo.History.t) list;
      (** one search per surviving candidate algorithm *)
  code : string option;  (** backend source for the winner *)
}

type result = {
  platform : Platform.t;
  schedule : Schedule.t;
  models : model_result list;  (** one per distinct spec name *)
  combined : Schedule.combined;  (** whole-pipeline feasibility *)
  bundle_code : string option;
      (** for multi-model schedules on Spatial targets: one program hosting
          every instance in schedule order (repeated specs become namespaced
          instances) *)
}

val worker_eval :
  options:options ->
  platform:Platform.t ->
  specs:Model_spec.t list ->
  scope:string ->
  index:int ->
  config:Bo.Config.t ->
  Bo.Optimizer.evaluation
(** Evaluate one dispatched candidate the way the inline search would have:
    the scope string (["<spec-name>/<algorithm>"], as built by the
    per-algorithm search and carried by every dispatched batch and journal
    record) selects the model, and the config-derived seed makes the result
    identical wherever it runs. Runs under [options.supervisor] when present
    (retries and budgets; give that supervisor no journal when the
    [dispatch] hook journals its own appends). [options.prune] is ignored:
    pruning is incompatible with dispatch.
    @raise Invalid_argument on an unparseable scope or unknown spec name. *)

val search_model :
  ?options:options -> Platform.t -> Model_spec.t -> model_result
(** Optimize a single spec: filter candidates, run one BO search per
    surviving algorithm, keep the best feasible artifact.
    @raise No_feasible_model when nothing feasible is found. *)

(** {2 Incremental re-search — the autopilot's budgeted search step} *)

type research_stats = {
  wall_s : float;  (** wall-clock seconds the whole attempt took *)
  replayed : int;
      (** evaluations answered from the supervisor's replay cache (0 without
          a supervisor) — the warm-start discount: replayed proposals cost
          microseconds, so the budget is spent on strictly new candidates *)
}

type research_outcome =
  | Research_won of model_result  (** a feasible winner inside the budget *)
  | Research_infeasible of string
      (** the search completed but found nothing feasible
          ({!No_feasible_model}'s payload) *)
  | Research_budget  (** the deadline passed first *)

val research :
  ?options:options ->
  ?budget_s:float ->
  Platform.t ->
  Model_spec.t ->
  research_outcome * research_stats
(** One budgeted {!search_model} run whose failure modes are data instead of
    exceptions, so an unattended caller (the autopilot) can degrade
    gracefully: on [Research_infeasible] or [Research_budget] the caller
    keeps its incumbent and records the event. [budget_s], when given, sets
    a wall-clock deadline of [now + budget_s], checked only at batch
    boundaries: a batch already dispatched runs to completion, so every
    journaled evaluation is a finished one ([budget_s <= 0.] therefore
    times out before the first batch — the forced-failure arm).
    Any other exception (including {!Homunculus_resilience.Faultplan.Killed})
    propagates: a simulated crash must look like a crash. *)

val generate : ?options:options -> Platform.t -> Schedule.t -> result
(** The full pipeline: search every distinct model of the schedule (repeated
    specs are searched once and instantiated per occurrence), then fold the
    schedule-level resource verdict. *)

val emit_code : Platform.t -> Homunculus_backends.Model_ir.t -> string
(** Spatial for Taurus/FPGA targets, P4 (+ table entries) for Tofino. *)

(** {2 Policy compilation — many models, one data plane} *)

type policy_result = {
  policy : Homunculus_policy.Policy.t;  (** the normalized policy *)
  tenant_models :
    (Homunculus_policy.Policy.tenant * model_result) list;
      (** per tenant, in tenant order; tenants sharing a spec name share a
          [model_result] (the spec is searched once) *)
  composed : Homunculus_policy.Lower.t;
      (** the one shared pipeline hosting every tenant *)
}

val shared_budget : Platform.t -> int -> Platform.t
(** The per-member search constraint of {!compile_policy}: the platform with
    its spatial resources cut to an [1/n] slice — Tofino table budget split
    evenly after reserving one guard table per tenant, Taurus grid columns
    divided — so [n] independently searched winners plus their guards stand
    a fighting chance of co-residing. Performance targets are left whole:
    every member must sustain line rate on its own. Identity for [n <= 1]
    and for FPGA targets. *)

val compile_policy :
  ?options:options ->
  Platform.t ->
  Homunculus_policy.Policy.t ->
  (policy_result, Homunculus_policy.Lower.error) Stdlib.result
(** Normalize the policy, search each distinct member spec under the
    {!shared_budget} slice of the platform, then lower the full tenant list
    onto the {e whole} platform through
    {!Homunculus_policy.Lower.compose}. [Error] carries the lowering
    rejection (over-subscription, bad guard, ...); search failures raise
    {!No_feasible_model} as usual. @raise Invalid_argument on a policy that
    normalizes to [drop]. *)

type tradeoff_point = {
  artifact : Evaluator.artifact;
  resource_fraction : float;
      (** max over resources of used/available, in [0, 1] for feasible
          points *)
  weight : float;  (** the scalarization weight that produced this point *)
}

val search_tradeoff :
  ?options:options ->
  ?n_scalarizations:int ->
  Platform.t ->
  Model_spec.t ->
  tradeoff_point list
(** Multi-objective search (HyperMapper's random-scalarization mode,
    Paria et al. 2019): run [n_scalarizations] (default 5) searches, each
    maximizing [w * objective - (1 - w) * resource_fraction] for a random
    simplex weight [w], and return the non-dominated feasible artifacts
    sorted by descending objective. Exposes the accuracy-vs-footprint
    trade-off the paper discusses (bigger models score higher but burn more
    CUs/power). @raise No_feasible_model when nothing feasible is found. *)
