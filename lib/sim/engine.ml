module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Policy = Suu_core.Policy
module Oblivious = Suu_core.Oblivious
module Counters = Suu_obs.Counters
module Exec_trace = Suu_obs.Exec_trace
module Churn = Suu_dyn.Churn
module Rng = Suu_prob.Rng

(* Process-wide engine telemetry. Counters are bumped at most once per
   trial or word (never per step), so they are always on: a few atomic
   adds disappear against the cost of even the shortest trial, which is
   what keeps the observer-disabled perf-smoke budget honest. *)
let counters = Counters.create ()
let c_trials = Counters.make counters "engine_trials_total"
let c_steps = Counters.make counters "engine_steps_simulated_total"
let c_vector_words = Counters.make counters "engine_vector_words_total"
let c_early_stops = Counters.make counters "engine_early_stops_total"

type outcome = { makespan : int; completed : bool }

let default_horizon inst =
  let n = Instance.n inst in
  if n = 0 then 1
  else begin
    let pmin = Instance.p_min inst in
    let logn = 1. +. Float.log (Float.of_int (max 2 n)) in
    let bound = 64. *. (Float.of_int n /. pmin) *. logn in
    (* Keep the cap sane even for tiny pmin. *)
    Float.to_int (Float.min bound 5e7) + 64
  end

let resolve_max_steps inst = function
  | Some v -> v
  | None -> default_horizon inst

(* Mutable execution arena shared by [run], [trace] and the estimators.
   One arena serves every trial of an estimate: [exec_reset] restores it
   without reallocating, so the steady-state trial loop allocates
   nothing. *)
type exec = {
  inst : Instance.t;
  unfinished : bool array;
  eligible : bool array;
  pending_preds : int array;
  init_preds : int array;  (** in-degrees, the reset image *)
  releases : int array option;
  churn : Churn.t option;
  mutable remaining : int;
  (* Per-step completion scratch, replacing a per-step Hashtbl: job [j]
     completed during the current step iff [mark.(j) = epoch]. The epoch
     increments every step (across trials too), so resetting the arena
     never needs to clear [mark]. *)
  mark : int array;
  mutable epoch : int;
  completed_buf : int array;
  mutable completed_count : int;
}

let exec_released_at ex j =
  match ex.releases with None -> true | Some r -> r.(j) <= 0

let exec_reset ex =
  let n = Array.length ex.unfinished in
  Array.fill ex.unfinished 0 n true;
  Array.blit ex.init_preds 0 ex.pending_preds 0 n;
  for j = 0 to n - 1 do
    ex.eligible.(j) <- ex.pending_preds.(j) = 0 && exec_released_at ex j
  done;
  ex.remaining <- n;
  ex.completed_count <- 0

(* The availability seam: churn timelines must match the instance's
   machine count, and an all-up timeline is dropped so the hot path
   keeps its churn-free shape. *)
let check_availability inst = function
  | None -> None
  | Some c ->
      if Churn.m c <> Instance.m inst then
        invalid_arg "Engine: availability machine count mismatch";
      if Churn.is_none c then None else Some c

let exec_create ?releases ?churn inst =
  let n = Instance.n inst in
  Releases.check ~n releases;
  let churn = check_availability inst churn in
  let dag = Instance.dag inst in
  let ex =
    {
      inst;
      unfinished = Array.make n true;
      eligible = Array.make n false;
      pending_preds = Array.make n 0;
      init_preds = Array.init n (Suu_dag.Dag.in_degree dag);
      releases;
      churn;
      remaining = n;
      mark = Array.make n (-1);
      epoch = 0;
      completed_buf = Array.make (max n 1) 0;
      completed_count = 0;
    }
  in
  exec_reset ex;
  ex

let exec_released_by ex t j =
  match ex.releases with None -> true | Some r -> r.(j) <= t

(* Mark jobs whose release date has arrived; no-op in the offline case. *)
let exec_release_due ex t =
  match ex.releases with
  | None -> ()
  | Some r ->
      Array.iteri
        (fun j rel ->
          if
            rel <= t && ex.unfinished.(j)
            && ex.pending_preds.(j) = 0
            && not ex.eligible.(j)
          then ex.eligible.(j) <- true)
        r

let exec_finish ex t j =
  ex.unfinished.(j) <- false;
  ex.eligible.(j) <- false;
  ex.remaining <- ex.remaining - 1;
  List.iter
    (fun v ->
      ex.pending_preds.(v) <- ex.pending_preds.(v) - 1;
      if ex.pending_preds.(v) = 0 && ex.unfinished.(v) && exec_released_by ex t v
      then ex.eligible.(v) <- true)
    (Suu_dag.Dag.succs (Instance.dag ex.inst) j)

(* Whether machine [i] may draw at step [t]: a machine that churn has
   taken down contributes no mass — and consumes no randomness, exactly
   as if the schedule had idled it (so the gated stepper on the original
   schedule is draw-for-draw the ungated stepper on the masked one). *)
let exec_machine_up ex i t =
  match ex.churn with
  | None -> true
  | Some c -> Churn.available c ~machine:i ~step:t

(* One step: completed jobs land in [ex.completed_buf] (first
   [ex.completed_count] slots, in marking order). The Bernoulli draw
   sequence — machines in index order, at most one draw per (machine,
   step), none once the job is already marked — is identical to the
   historical Hashtbl-based implementation, which keeps seeded estimates
   bit-stable. *)
let exec_step rng ex t assignment =
  ex.epoch <- ex.epoch + 1;
  let epoch = ex.epoch in
  let count = ref 0 in
  Array.iteri
    (fun i j ->
      if
        j <> Assignment.idle_job
        && ex.unfinished.(j)
        && ex.eligible.(j)
        && ex.mark.(j) <> epoch
        && exec_machine_up ex i t
      then
        if Suu_prob.Rng.bernoulli rng (Instance.prob ex.inst ~machine:i ~job:j)
        then begin
          ex.mark.(j) <- epoch;
          ex.completed_buf.(!count) <- j;
          incr count
        end)
    assignment;
  ex.completed_count <- !count;
  (* Completions take effect at the end of the step; finishing in
     reverse marking order preserves the historical update order. *)
  for k = !count - 1 downto 0 do
    exec_finish ex t ex.completed_buf.(k)
  done

(* The completions of the last step as a list (reverse marking order,
   matching the historical [trace] output). *)
let exec_completed_list ex =
  let acc = ref [] in
  for k = 0 to ex.completed_count - 1 do
    acc := ex.completed_buf.(k) :: !acc
  done;
  !acc

(* Run one realisation on an already-reset arena. [on_step t a] sees
   each executed step's assignment after its draws, with the step's
   completions still in [ex.completed_buf]; it draws nothing. *)
let run_exec ?(on_step = fun (_ : int) (_ : Assignment.t) -> ()) ~max_steps
    rng ex policy =
  let decide = policy.Policy.fresh () in
  let t = ref 0 in
  while ex.remaining > 0 && !t < max_steps do
    exec_release_due ex !t;
    let state =
      { Policy.step = !t; unfinished = ex.unfinished; eligible = ex.eligible }
    in
    let a = decide state in
    exec_step rng ex !t a;
    on_step !t a;
    incr t
  done;
  { makespan = !t; completed = ex.remaining = 0 }

let run ?max_steps ?releases ?availability rng inst policy =
  let max_steps = resolve_max_steps inst max_steps in
  let ex = exec_create ?releases ?churn:availability inst in
  run_exec ~max_steps rng ex policy

let trace ?max_steps ?releases ?availability rng inst policy =
  let max_steps = resolve_max_steps inst max_steps in
  let ex = exec_create ?releases ?churn:availability inst in
  let history = ref [] in
  let on_step t a =
    history := (t, Array.copy a, exec_completed_list ex) :: !history
  in
  ignore (run_exec ~on_step ~max_steps rng ex policy : outcome);
  List.rev !history

type estimate = {
  stats : Suu_prob.Stats.summary;
  trials : int;
  incomplete : int;
  samples : float array;
}

let finish_estimate ~max_steps ~trials ~incomplete samples =
  let stats =
    if Array.length samples = 0 then
      (* All runs truncated: report the cap itself so callers see a huge
         value rather than crashing. *)
      Suu_prob.Stats.summarize [| Float.of_int max_steps |]
    else Suu_prob.Stats.summarize samples
  in
  { stats; trials; incomplete; samples }

(* --- observed replays --------------------------------------------------- *)

(* Re-run one trial on a reset stepping arena while capturing its
   step-by-step history (at most [limit] steps). For an oblivious policy
   the recorded assignment is the decided schedule column, which is what
   [trace] records too. *)
let run_trial_observed ex policy rng ~max_steps ~limit =
  exec_reset ex;
  let steps = ref [] in
  let recorded = ref 0 in
  let on_step t a =
    if !recorded < limit then begin
      steps :=
        {
          Exec_trace.t = t + 1;
          assignment = Array.copy a;
          completed = exec_completed_list ex;
        }
        :: !steps;
      incr recorded
    end
  in
  let o = run_exec ~on_step ~max_steps rng ex policy in
  Counters.add c_steps o.makespan;
  (o, List.rev !steps)

(* The seed an observed replay of trial [k] runs on — what
   [Exec_trace.trial.seed] records. *)
let trial_seed seed k = seed lxor ((k + 1) * 0x9E3779B1)

(* --- CI-width sequential stopping ------------------------------------ *)

(* Running Welford accumulator over completed samples, checked only at
   whole-word boundaries. The half-width mirrors [Stats.summarize]:
   1.96 * sqrt(m2 / (n-1)) / sqrt(n). *)
type ci_acc = { mutable cnt : int; mutable mean : float; mutable m2 : float }

let ci_acc () = { cnt = 0; mean = 0.; m2 = 0. }

let ci_add a x =
  a.cnt <- a.cnt + 1;
  let d = x -. a.mean in
  a.mean <- a.mean +. (d /. Float.of_int a.cnt);
  a.m2 <- a.m2 +. (d *. (x -. a.mean))

let ci_reached a target =
  a.cnt >= 2
  &&
  let n = Float.of_int a.cnt in
  1.96 *. sqrt (a.m2 /. (n -. 1.) /. n) <= target

let check_ci_target = function
  | Some c when not (c > 0.) -> invalid_arg "Engine: ci_target must be > 0"
  | _ -> ()

(* --- the word loop ------------------------------------------------------ *)

let word = Lanes.lanes_per_word

(* Where a word's randomness comes from. [Seeded seed]: word [w]
   (trials [63w .. 63w+62]) runs on the stream [Rng.derive seed w],
   whoever runs it and whichever of its lanes are kept — the unit of
   determinism of the seeded, range and parallel estimators.
   [Sequential rng]: words take their seeds from the caller's generator
   in order ([estimate_makespan]). *)
type source = Seeded of int | Sequential of Rng.t

(* One domain's simulator: the compiled lanes kernel for structurally
   tagged policies, the naive stepper's arena for the rest. *)
type sim = Kernel of Lanes.t | Stepper of exec * Policy.t

let make_sim ?releases ?availability inst policy =
  match Lanes.create ?releases ?availability inst policy with
  | Some k -> Kernel k
  | None -> Stepper (exec_create ?releases ?churn:availability inst, policy)

(* Simulate word [w] and store the makespans (-1 = truncated) of its
   trials [a, b) at [out.(k - lo)], as floats — [out] becomes the
   sample vector in place. A seeded kernel word always runs all
   63 lanes — a lane's outcome depends on which lanes share its word —
   and keeps only [a, b); stepper lanes are independent streams, so only
   the kept ones run. *)
let run_word sim source ~max_steps ~scratch ~w ~a ~b ~lo out =
  let base = w * word in
  match sim with
  | Kernel k ->
      let seed, lanes =
        match source with
        | Seeded s -> (Rng.derive s w, word)
        | Sequential rng -> (Int64.to_int (Rng.int64 rng), b - base)
      in
      Lanes.run_word k ~seed ~max_steps ~lanes ~makespans:scratch;
      Counters.incr c_vector_words;
      for t = a to b - 1 do
        out.(t - lo) <- Float.of_int scratch.(t - base)
      done
  | Stepper (ex, policy) ->
      let lane_rng =
        match source with
        | Seeded s ->
            let ws = Rng.derive s w in
            fun k -> Rng.create (Rng.derive ws (k - base))
        | Sequential rng -> fun _ -> rng
      in
      for k = a to b - 1 do
        exec_reset ex;
        let o = run_exec ~max_steps (lane_rng k) ex policy in
        Counters.add c_steps o.makespan;
        out.(k - lo) <- (if o.completed then Float.of_int o.makespan else -1.)
      done

exception Interrupted

(* The estimator behind all four entry points: trials [lo, hi) in whole
   words, self-scheduled across [domains] (the calling one included).
   Per word: [on_trial] for each kept index in order, one [stop] poll,
   the simulation, then — under a [ci_target] — a fold of the word into
   the Welford accumulator in word order, which may cut the estimate at
   that absolute word boundary. Words claimed past the cut are discarded,
   so the result is the same at any domain count. *)
let estimate_words ?releases ?availability ?ci_target ?(domains = 1)
    ?(stop = fun () -> false) ?(on_trial = fun (_ : int) -> ()) ~max_steps
    ~source ~lo ~hi inst policy =
  check_ci_target ci_target;
  let w0 = lo / word in
  let nwords = ((hi - 1) / word) - w0 + 1 in
  let span i = (max lo ((w0 + i) * word), min hi ((w0 + i + 1) * word)) in
  let out = Array.make (hi - lo) 0. in
  let next = Atomic.make 0 in
  let cut = Atomic.make nwords in
  let failure : exn option Atomic.t = Atomic.make None in
  let fold =
    match ci_target with
    | None -> fun (_ : int) -> ()
    | Some tgt ->
        let mu = Mutex.create () in
        let finished = Array.make nwords false in
        let mark = ref 0 in
        let acc = ci_acc () in
        fun i ->
          Mutex.protect mu (fun () ->
              finished.(i) <- true;
              while !mark < Atomic.get cut && finished.(!mark) do
                let a, b = span !mark in
                for k = a - lo to b - lo - 1 do
                  if out.(k) >= 0. then ci_add acc out.(k)
                done;
                incr mark;
                if !mark < nwords && ci_reached acc tgt then begin
                  Atomic.set cut !mark;
                  Counters.incr c_early_stops
                end
              done)
  in
  let worker () =
    match make_sim ?releases ?availability inst policy with
    | exception e -> ignore (Atomic.compare_and_set failure None (Some e))
    | sim ->
        let scratch = Array.make word 0 in
        let continue = ref true in
        while !continue && Atomic.get failure = None do
          let i = Atomic.fetch_and_add next 1 in
          if i >= Atomic.get cut then continue := false
          else
            try
              let a, b = span i in
              for k = a to b - 1 do
                on_trial k
              done;
              if stop () then raise Interrupted;
              run_word sim source ~max_steps ~scratch ~w:(w0 + i) ~a ~b ~lo out;
              Counters.add c_trials (b - a);
              fold i
            with e ->
              (* First failure wins; the other domains drain. *)
              ignore (Atomic.compare_and_set failure None (Some e))
        done
  in
  let handles =
    List.init (min domains nwords - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join handles;
  Option.iter raise (Atomic.get failure);
  let executed = snd (span (Atomic.get cut - 1)) - lo in
  (* Compact the completed trials' makespans to the front, in order. *)
  let filled = ref 0 in
  for k = 0 to executed - 1 do
    if out.(k) >= 0. then begin
      out.(!filled) <- out.(k);
      incr filled
    end
  done;
  finish_estimate ~max_steps ~trials:executed ~incomplete:(executed - !filled)
    (Array.sub out 0 !filled)

(* --- entry points --------------------------------------------------------- *)

let estimate_makespan ?max_steps ?releases ?availability ?ci_target ~trials rng
    inst policy =
  if trials < 1 then invalid_arg "Engine.estimate_makespan: trials < 1";
  estimate_words ?releases ?availability ?ci_target
    ~max_steps:(resolve_max_steps inst max_steps)
    ~source:(Sequential rng) ~lo:0 ~hi:trials inst policy

let estimate_makespan_range ?max_steps ?releases ?availability ?ci_target ?stop
    ?on_trial ~seed ~lo ~hi inst policy =
  if lo < 0 || hi <= lo then
    invalid_arg "Engine.estimate_makespan_range: need 0 <= lo < hi";
  estimate_words ?releases ?availability ?ci_target ?stop ?on_trial
    ~max_steps:(resolve_max_steps inst max_steps)
    ~source:(Seeded seed) ~lo ~hi inst policy

let merge_ranges ~max_steps parts =
  if parts = [] then invalid_arg "Engine.merge_ranges: no parts";
  let trials = List.fold_left (fun a e -> a + e.trials) 0 parts in
  let incomplete = List.fold_left (fun a e -> a + e.incomplete) 0 parts in
  let samples = Array.concat (List.map (fun e -> e.samples) parts) in
  finish_estimate ~max_steps ~trials ~incomplete samples

let estimate_makespan_seeded ?max_steps ?releases ?availability ?ci_target
    ?stop ?on_trial ?observer ~trials ~seed inst policy =
  if trials < 1 then invalid_arg "Engine.estimate_makespan_seeded: trials < 1";
  let max_steps = resolve_max_steps inst max_steps in
  let e =
    estimate_words ?releases ?availability ?ci_target ?stop ?on_trial
      ~max_steps ~source:(Seeded seed) ~lo:0 ~hi:trials inst policy
  in
  (* Observation is a side replay on the naive stepper: it never feeds
     the estimate, so observing cannot perturb it. *)
  Option.iter
    (fun o ->
      let ex = exec_create ?releases ?churn:availability inst in
      for k = 0 to e.trials - 1 do
        if Exec_trace.selects o k then begin
          let seed = trial_seed seed k in
          let outcome, steps =
            run_trial_observed ex policy (Rng.create seed) ~max_steps
              ~limit:o.Exec_trace.limit
          in
          o.Exec_trace.emit
            {
              Exec_trace.index = k;
              seed;
              makespan = outcome.makespan;
              truncated = not outcome.completed;
              steps;
            }
        end
      done)
    observer;
  e

let estimate_makespan_parallel ?max_steps ?releases ?availability ?domains
    ?ci_target ?stop ?on_trial ~trials ~seed inst policy =
  if trials < 1 then invalid_arg "Engine.estimate_makespan_parallel: trials < 1";
  let domains =
    match domains with
    | Some d ->
        if d < 1 then
          invalid_arg "Engine.estimate_makespan_parallel: domains < 1";
        d
    | None -> min 8 (Domain.recommended_domain_count ())
  in
  estimate_words ?releases ?availability ?ci_target ~domains ?stop ?on_trial
    ~max_steps:(resolve_max_steps inst max_steps)
    ~source:(Seeded seed) ~lo:0 ~hi:trials inst policy
