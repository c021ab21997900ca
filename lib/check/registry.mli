(** The registered conformance properties.

    Every paper guarantee the codebase claims — MSM-ALG's 1/3 bound
    (Theorem 3.2), MSM-E-ALG's 1/3 bound (Lemma 3.4), the mass
    accumulation of Algorithm 2 (Lemma 3.5) with Proposition 2.1's
    sandwich, exact-chain/Monte-Carlo agreement, vectorized/naive
    distribution equivalence — plus structural invariants (typed
    validation, tie-break determinism, relabeling invariance of optima,
    monotonicity of TOPT in p, serialisation round-trips, parallel
    estimator identity) is certified here on seeded random instances. *)

val all : Property.t list
(** Every registered property, in report order (includes hidden ones). *)

val visible : Property.t list
(** The default run: {!all} without hidden properties. *)

val find : string -> Property.t option
(** Lookup by name. *)
