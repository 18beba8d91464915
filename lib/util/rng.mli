(** Deterministic pseudo-random number generation.

    All stochastic components of the system (dataset synthesis, weight
    initialization, Bayesian-optimization sampling, traffic simulation) draw
    from explicit [Rng.t] values rather than global state, so that every
    experiment is reproducible from a single integer seed. The generator is
    splitmix64, which is fast, has a 64-bit state, and supports cheap
    splitting into independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the state, including a cached spare {!gaussian}
    deviate; the copy evolves independently. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t]. Use one split per subsystem so that adding draws in one place does
    not perturb another. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent generators in index order. This is
    the pre-splitting step that makes parallel loops deterministic: hand
    stream [i] to task [i] and the results cannot depend on which domain ran
    which task. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform over [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform over [0, bound). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform over [lo, hi). *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> ?mu:float -> ?sigma:float -> unit -> float
(** Normal deviate via Marsaglia's polar method, which yields two per
    accepted pair: the second is cached and returned by the next call.
    Defaults [mu = 0.], [sigma = 1.]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate). @raise Invalid_argument if
    [rate <= 0.]. *)

val pareto : t -> xm:float -> alpha:float -> float
(** Pareto(x_m, alpha) heavy-tailed deviate (packet sizes, flow lengths). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on [||]. *)

val choice_weighted : t -> ('a * float) array -> 'a
(** Sample proportionally to the (non-negative, not all zero) weights. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices t ~n ~k] draws [k] distinct indices from [0..n-1]
    (Floyd's algorithm). @raise Invalid_argument if [k > n]. *)
