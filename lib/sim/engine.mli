(** Monte-Carlo execution of schedules (the stochastic environment).

    Plays the role of the paper's probabilistic machine model: at every
    step, each machine assigned to an eligible unfinished job completes it
    with probability [p_ij], independently of everything else; a job
    finishes when at least one of its machines succeeds; eligibility
    updates at step boundaries.

    {2 Words}

    All four estimators run one loop over {e words}: trials
    [63w .. 63w+62] form word [w] ({!Lanes.lanes_per_word} trials).
    Policies tagged {!Suu_core.Policy.Oblivious_schedule} or
    {!Suu_core.Policy.Greedy_pairs} run a whole word per call of the
    trial-batched {!Lanes} kernel; other policies run the naive stepper,
    63 trials per word, on one reused execution arena. Both are
    distribution-equivalent to {!run}, which (like {!trace}) always uses
    the naive stepper.

    The word is the unit of determinism. In the seeded estimators word
    [w] draws from one stream derived from [(seed, w)] by splitmix64
    ({!Suu_prob.Rng.derive}); a stepper lane [l] of it from a stream
    derived in turn from the word's seed and [l]. A kernel word always
    simulates all 63 lanes — a lane's outcome depends on the lanes that
    share its word — and an estimate keeps the lanes inside its trial
    range. So the seeded estimate, the parallel one at any domain count
    and {!merge_ranges} over any contiguous partition into ranges (word
    aligned or not) are bit-identical, and depend only on
    [(seed, trials)].

    {2 Sequential stopping}

    Every estimator accepts [?ci_target] (default: off). When set, the
    estimate stops drawing trials at the first {e absolute} word
    boundary (a multiple of {!Lanes.lanes_per_word} counted from trial
    0) where the 95% CI half-width of the mean makespan over its
    completed samples is at most [ci_target]; the [trials] field of the
    result reports the executed count. Seeded and parallel estimates
    stop at the same boundary; a range folds only its own samples, so
    its cut is a function of the range alone.
    @raise Invalid_argument if [ci_target <= 0]. *)

type outcome = {
  makespan : int;  (** steps until the last job completed *)
  completed : bool;  (** [false] iff the [max_steps] cap was hit *)
}

val counters : Suu_obs.Counters.t
(** Process-wide engine telemetry, bumped by every estimator (at trial
    or word granularity, from any domain): [engine_trials_total] (trials
    kept by estimates), [engine_steps_simulated_total] (naive-stepper
    steps, observed replays included), [engine_vector_words_total]
    (words the vectorized {!Lanes} kernel executed) and
    [engine_early_stops_total] (estimates cut short by a [ci_target]).
    The serving layer folds these into its Prometheus exposition. *)

val default_horizon : Suu_core.Instance.t -> int
(** A safe step cap: generous multiple of [n / p_min · (1 + ln n)], the
    paper's crude TOPT upper bound (§3.2). Executions that exceed it are
    reported as incomplete rather than looping forever. *)

val run :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  outcome
(** Execute one realisation. [max_steps] defaults to [default_horizon].

    [releases] (one 0-based step per job, default all zero) makes the
    execution an {e online} one, in the spirit of the paper's §5 open
    problem: job [j] only becomes eligible once step [releases.(j)] has
    been reached (in addition to its predecessors being done). Policies
    see release state only through the [eligible] flags, so an adaptive
    policy is automatically an online algorithm. Hostile vectors are
    rejected with {!Releases.Invalid} (typed, like
    {!Suu_core.Instance.Invalid}) at every entry that accepts
    [?releases].

    [availability] (default: everything up) is the machine-churn seam: a
    machine that is down at step [t] per the timeline contributes no
    completion mass that step — its Bernoulli draw is suppressed
    entirely, consuming no randomness, exactly as if the schedule had
    idled it. Policies are churn-oblivious (they may still assign work
    to a down machine; the environment wastes it). The gated stepper on
    a schedule is draw-for-draw identical to the ungated stepper on
    {!Suu_dyn.Churn.mask} of that schedule, which is how the estimators
    below serve oblivious policies under churn at full vectorized
    speed. @raise Invalid_argument when the timeline's
    machine count differs from the instance's. *)

val trace :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  (int * Suu_core.Assignment.t * int list) list
(** Like [run] but returns the executed history:
    [(step, assignment, jobs completed that step)]. For tests/examples. *)

type estimate = {
  stats : Suu_prob.Stats.summary;  (** over completed trials *)
  trials : int;
      (** trials actually executed — less than requested only when a
          [ci_target] stopped the estimate early *)
  incomplete : int;  (** trials that hit the cap (excluded from stats) *)
  samples : float array;
      (** makespans of the completed trials, in trial order — the k-th
          element is the k-th trial that completed, for every estimator
          (sequential, seeded and parallel alike) *)
}

val estimate_makespan :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  trials:int ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** Expected-makespan estimate over (up to) [trials] independent
    executions drawn sequentially from the given generator: a kernel
    word takes its seed from the generator (a partial last word runs
    only its lanes), a stepper trial draws from the generator itself,
    trial after trial. *)

exception Interrupted
(** Raised by {!estimate_makespan_seeded}, {!estimate_makespan_range} and
    {!estimate_makespan_parallel} when their [stop] callback fires. *)

val estimate_makespan_range :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  ?stop:(unit -> bool) ->
  ?on_trial:(int -> unit) ->
  seed:int ->
  lo:int ->
  hi:int ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** The trials [lo <= k < hi] of the seeded estimate with master seed
    [seed] — the unit of work a sharding coordinator fans out. Every
    word the range touches runs exactly as in
    {!estimate_makespan_seeded} and the range keeps its own lanes, so
    for any partition of [\[0, n)] into contiguous ranges, {!merge_ranges}
    over the per-range estimates (in range order) reproduces
    [estimate_makespan_seeded ~trials:n ~seed] bit-for-bit: samples,
    summary, and incomplete count alike. Ranges that share a word each
    simulate it (the sharding coordinator's default chunks are whole
    words). The returned [trials] field is [hi - lo], or the
    executed prefix length when [ci_target] stopped the range early at
    an absolute word boundary. [stop] and [on_trial] have the contract
    of {!estimate_makespan_seeded} ([on_trial] sees absolute indices).
    @raise Invalid_argument unless [0 <= lo < hi]. *)

val merge_ranges : max_steps:int -> estimate list -> estimate
(** Merge per-range estimates of one seeded run, given in range order
    (increasing [lo], ranges contiguous from 0): samples concatenate,
    [trials] and [incomplete] add, and the summary is recomputed over
    the merged sample vector — bit-identical to the single-process
    seeded estimate when the parts partition its trial range and
    [max_steps] matches (it only feeds the all-truncated fallback).
    @raise Invalid_argument on the empty list. *)

val estimate_makespan_seeded :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  ?stop:(unit -> bool) ->
  ?on_trial:(int -> unit) ->
  ?observer:Suu_obs.Exec_trace.observer ->
  trials:int ->
  seed:int ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** Like {!estimate_makespan} but word-seeded: word [w] draws from a
    stream derived from [(seed, w)] (see {e Words} above), so the
    estimate depends only on [(seed, trials)] — not on chunking,
    scheduling, or how many concurrent callers share the process. The
    serving layer uses it so a request's answer is identical no matter
    which worker domain runs it.

    Per word, [on_trial k] (default: nothing) runs for each of the
    word's indices in order, then [stop] is polled once (default: never
    stops), then the word is simulated. When [stop] returns [true] the
    estimate is abandoned and {!Interrupted} is raised before the word
    runs — the hook for per-request deadline enforcement. A word is
    bounded by [max_steps] (default {!default_horizon}) steps per lane,
    so the poll interval is bounded too. [on_trial] is an observability
    and fault-injection seam: the serving layer's chaos harness uses it
    to stall a trial (a sleep, exercising mid-request deadline
    enforcement — the poll that follows sees the expired deadline) or
    to fail transiently (an exception, which propagates to the caller
    and exercises the retry policy). It cannot perturb the estimate:
    word streams are fixed by [(seed, w)].

    [observer] (default: none) captures the step-by-step execution —
    per-step machine→job assignments and completions — of the trials its
    [sample_every] selects, emitting one {!Suu_obs.Exec_trace.trial} per
    selected trial, in trial order, after the estimate. Observation is a
    side replay: trial [k] is re-run on the naive stepper from
    [Rng.create seed'], where [seed'] is the per-trial seed
    [Exec_trace.trial.seed] records, so it shows one realisation of the
    same law rather than the estimate's own lane [k], and the estimate
    is bit-identical with the observer on or off. For an oblivious
    policy the recorded assignment at step [t] is the schedule column
    [Oblivious.step sched t] verbatim — the {e decided} assignment,
    completed jobs included — matching what {!trace} records. *)

val estimate_makespan_parallel :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?domains:int ->
  ?ci_target:float ->
  ?stop:(unit -> bool) ->
  ?on_trial:(int -> unit) ->
  trials:int ->
  seed:int ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** Multicore {!estimate_makespan_seeded}: whole words are
    self-scheduled across [domains] OCaml 5 domains (default:
    [Domain.recommended_domain_count], capped at 8; never more than the
    word count) from a shared counter, so the domains stay balanced even
    when word lengths vary. Word [w] runs exactly as in the seeded
    estimator, so the summary {e and} the sample vector are a pure
    function of [(seed, trials)] — identical at any domain count, and
    identical to [estimate_makespan_seeded ~seed ~trials].

    [stop] and [on_trial] have the same contract as in
    {!estimate_makespan_seeded}, but may be invoked concurrently from any
    worker domain, so they must be domain-safe; the first exception one
    of them (or a word) raises aborts the remaining words and is
    re-raised in the calling domain. The policy's [fresh] function is
    called once per stepper trial inside the worker domain; policies
    must not share hidden mutable state across trials (all policies in
    this library satisfy this).

    With a [ci_target], the CI fold consumes words in index order as they
    complete, so the stopping boundary — and hence the sample vector and
    the [trials] count — is exactly the sequential seeded one at any
    domain count; words already claimed beyond the boundary are
    discarded, bounding the overshoot by the domain count. *)
