(** Execution traces: per-step machine→job assignments for a sampled
    fraction of Monte-Carlo trials.

    The engine drives this through an [observer] seam: when a trial's
    index is selected by [sample_every], the engine replays or records
    that trial step-by-step and hands the result to [emit]. Everything
    here is in terms of plain ints — job [j] of [jobs], machine [i] of
    [machines] — so [lib/obs] stays free of engine types; probabilities
    enter only through a [prob] callback when mass is derived.

    Semantics of a recorded step: [assignment.(i)] is the job the policy
    {e decided} to run on machine [i] (-1 when idle). For an oblivious
    schedule this is the schedule column verbatim, whether or not the
    job already completed — matching the engine's trace semantics — so
    mass accumulated over the captured assignments equals the schedule
    mass of Definition 2.4 (the [obs] conformance property relies on
    exactly this). [completed] lists the jobs whose Bernoulli draw
    succeeded at this step. *)

type step = {
  t : int;  (** 1-based step index *)
  assignment : int array;  (** machine index → job id, [-1] = idle *)
  completed : int list;  (** jobs completing at this step *)
}

type trial = {
  index : int;  (** trial number within the estimator call *)
  seed : int;  (** the seed the engine replayed this trial from *)
  makespan : int;  (** steps to completion ([max_steps] if truncated) *)
  truncated : bool;
  steps : step list;  (** chronological; at most [limit] of them *)
}

type observer = {
  sample_every : int;  (** observe trial [k] iff [k mod sample_every = 0] *)
  limit : int;  (** cap on recorded steps per trial (truncated trials
                    would otherwise record [max_steps] entries) *)
  emit : trial -> unit;
}

val observer : ?sample_every:int -> ?limit:int -> (trial -> unit) -> observer
(** Defaults: [sample_every = 1] (every trial), [limit = 100_000].
    @raise Invalid_argument unless both are [>= 1]. *)

val selects : observer -> int -> bool
(** [selects o k] — does the observer want trial [k]? *)

val collector : ?sample_every:int -> ?limit:int -> unit -> observer * (unit -> trial list)
(** An observer that accumulates trials in memory, and a function
    returning them in emission order. Single-domain use only (the
    engine's sequential estimators emit in order; the parallel estimator
    does not take an observer). *)

val mass_trajectory :
  prob:(machine:int -> job:int -> float) -> jobs:int -> trial -> (int * float array) list
(** Per-job accumulated mass after each recorded step: for every
    captured step [t], a snapshot of [Σ p(i,j)] over the assignments up
    to and including [t], capped at 1 per job (Definition 2.4's
    success-mass cap). The float array is a fresh copy per step, indexed
    by job. *)

val to_events : ?prob:(machine:int -> job:int -> float) -> machines:int -> jobs:int -> trial -> Trace_event.t list
(** Render one trial on a synthetic timeline (1 step = 1 µs): per
    machine, contiguous runs of the same job become complete slices;
    completions become instants; an ["unfinished"] counter tracks the
    number of jobs still alive. With [prob], each slice carries its
    per-step success probability as an arg. [pid] is the trial index, so
    multiple trials load as separate processes in Perfetto. *)

val csv_header : string list
(** [["trial"; "t"; "job"; "mass"; "completed"]] — column names for
    {!mass_csv_rows}. *)

val mass_csv_rows :
  prob:(machine:int -> job:int -> float) -> jobs:int -> trial -> string list list
(** One row per (recorded step × job): trial index, step, job id,
    accumulated capped mass, and whether the job has completed by that
    step (0/1). Shaped for [lib/harness]'s CSV writer. *)
