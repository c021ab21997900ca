(** Deterministic pseudo-random number generation.

    All stochastic components of the library draw randomness through this
    module so that every experiment, test and benchmark is reproducible from
    a single integer seed. The generator is splitmix64 (Steele, Lea &
    Flood 2014): a 64-bit state advanced by a Weyl sequence and finalised by
    a variant of the MurmurHash3 mixer. It is small, fast, passes BigCrush,
    and — crucially for us — supports cheap [split]ting so independent
    subsystems can derive uncorrelated streams from one master seed. *)

type t
(** A mutable generator state. Not thread-safe; use [split] to hand
    independent generators to independent components. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds give
    equal streams. *)

val copy : t -> t
(** [copy rng] is a generator starting at the same state as [rng]; the two
    then evolve independently. *)

val split : t -> t
(** [split rng] advances [rng] and returns a fresh generator whose stream is
    (statistically) independent of the remainder of [rng]'s stream. *)

val derive : int -> int -> int
(** [derive seed k] is a seed for substream [k] of [seed]: the [k]-th
    output (0-based) of [create seed], computed without stepping the
    first [k]. Distinct [k] give splitmix64-decorrelated seeds, so
    [create (derive seed k)] hands out independent streams indexed by
    [k]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is a uniform integer in [\[0, bound)]. [bound] must be
    positive. Uses rejection sampling, so the result is exactly uniform. *)

val float : t -> float
(** [float rng] is a uniform float in [\[0, 1)] with 53 bits of precision. *)

val uniform : t -> float -> float -> float
(** [uniform rng lo hi] is a uniform float in [\[lo, hi)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. Probabilities outside
    [\[0,1\]] are clamped. *)

val geometric : t -> float -> int
(** [geometric rng p] is the number of Bernoulli([p]) trials up to and
    including the first success (support 1, 2, ...). Requires [p > 0.]. *)

val exponential : t -> float -> float
(** [exponential rng rate] samples Exp(rate). Requires [rate > 0.]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniformly random permutation of [0..n-1]. *)
