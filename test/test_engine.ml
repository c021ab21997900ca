module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Engine = Suu_sim.Engine
module Rng = Suu_prob.Rng

let single_job p = Instance.independent ~p:[| [| p |] |]

let always_assign inst =
  Policy.stateless "always" (fun _ -> Array.make (Instance.m inst) 0)

let test_empty_instance () =
  let inst = Instance.independent ~p:[| [||] |] in
  let o = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "makespan 0" 0 o.Engine.makespan;
  Alcotest.(check bool) "completed" true o.Engine.completed

let test_certain_job () =
  let inst = single_job 1.0 in
  let o = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "one step" 1 o.Engine.makespan

let test_geometric_mean () =
  (* Single job, p = 0.25: E[makespan] = 4. *)
  let inst = single_job 0.25 in
  let e =
    Engine.estimate_makespan ~trials:20_000 (Rng.create 5) inst
      (always_assign inst)
  in
  let mean = e.Engine.stats.Suu_prob.Stats.mean in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.) < 0.1)

let test_two_machines_combined () =
  (* Two machines p=0.5 each on one job: success 0.75, E = 4/3. *)
  let inst = Instance.independent ~p:[| [| 0.5 |]; [| 0.5 |] |] in
  let policy = Policy.stateless "both" (fun _ -> [| 0; 0 |]) in
  let e = Engine.estimate_makespan ~trials:20_000 (Rng.create 7) inst policy in
  let mean = e.Engine.stats.Suu_prob.Stats.mean in
  Alcotest.(check bool) "mean near 4/3" true (Float.abs (mean -. (4. /. 3.)) < 0.05)

let test_max_steps_cap () =
  let inst = single_job 0.5 in
  let never = Policy.stateless "idle" (fun _ -> [| -1 |]) in
  let o = Engine.run ~max_steps:50 (Rng.create 1) inst never in
  Alcotest.(check bool) "not completed" false o.Engine.completed;
  Alcotest.(check int) "hit cap" 50 o.Engine.makespan

let test_ineligible_jobs_not_run () =
  (* Chain 0 -> 1; a policy that always points machines at job 1 makes no
     progress on it until job 0 is done — and the engine must not let job 1
     complete first. *)
  let inst =
    Instance.create
      ~p:[| [| 0.6; 0.6 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let sneaky =
    Policy.stateless "sneaky" (fun state ->
        if state.Policy.unfinished.(1) then [| 1 |] else [| 0 |])
  in
  let o = Engine.run ~max_steps:100 (Rng.create 3) inst sneaky in
  (* Job 1 is never eligible while 0 is unfinished and the policy never
     works on 0 while 1 is unfinished: deadlock until the cap. *)
  Alcotest.(check bool) "deadlock detected" false o.Engine.completed

let test_precedence_order_respected () =
  let dag = Suu_dag.Dag.create ~n:3 [ (0, 1); (1, 2) ] in
  let inst = Instance.create ~p:[| [| 0.7; 0.7; 0.7 |] |] ~dag in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        [| !target |])
  in
  let history = Engine.trace (Rng.create 11) inst policy in
  let completion = Hashtbl.create 3 in
  List.iter
    (fun (t, _, completed) ->
      List.iter (fun j -> Hashtbl.replace completion j t) completed)
    history;
  let time j = Hashtbl.find completion j in
  Alcotest.(check bool) "0 before 1" true (time 0 < time 1);
  Alcotest.(check bool) "1 before 2" true (time 1 < time 2)

let test_trace_matches_assignments () =
  let inst = single_job 1.0 in
  let history = Engine.trace (Rng.create 1) inst (always_assign inst) in
  match history with
  | [ (0, a, [ 0 ]) ] -> Alcotest.(check (array int)) "assignment" [| 0 |] a
  | _ -> Alcotest.fail "unexpected trace shape"

let test_estimate_counts () =
  let inst = single_job 0.9 in
  let e =
    Engine.estimate_makespan ~trials:50 (Rng.create 2) inst (always_assign inst)
  in
  Alcotest.(check int) "trials" 50 e.Engine.trials;
  Alcotest.(check int) "complete" 0 e.Engine.incomplete;
  Alcotest.(check int) "count" 50 e.Engine.stats.Suu_prob.Stats.count

let test_default_horizon_positive () =
  let inst = single_job 0.01 in
  Alcotest.(check bool) "positive" true (Engine.default_horizon inst > 100)

let test_determinism () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6 |]; [| 0.7; 0.2 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let a = Engine.run (Rng.create 99) inst policy in
  let b = Engine.run (Rng.create 99) inst policy in
  Alcotest.(check int) "same seed same makespan" a.Engine.makespan b.Engine.makespan

(* --- multicore estimation --- *)

let test_parallel_matches_sequential_stats () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6; 0.5 |]; [| 0.7; 0.2; 0.4 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let seq =
    Engine.estimate_makespan ~trials:3000 (Rng.create 9) inst policy
  in
  let par =
    Engine.estimate_makespan_parallel ~domains:4 ~trials:3000 ~seed:9 inst
      policy
  in
  let diff =
    Float.abs
      (seq.Engine.stats.Suu_prob.Stats.mean
      -. par.Engine.stats.Suu_prob.Stats.mean)
  in
  let tol =
    Float.max 0.1
      (4.
      *. (seq.Engine.stats.Suu_prob.Stats.sem
         +. par.Engine.stats.Suu_prob.Stats.sem))
  in
  Alcotest.(check bool)
    (Printf.sprintf "means agree (diff %.3f, tol %.3f)" diff tol)
    true (diff < tol);
  Alcotest.(check int) "all samples" 3000
    (Array.length par.Engine.samples + par.Engine.incomplete)

let test_parallel_deterministic () =
  let inst = Instance.independent ~p:[| [| 0.4; 0.6 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let a =
    Engine.estimate_makespan_parallel ~domains:3 ~trials:100 ~seed:5 inst policy
  in
  let b =
    Engine.estimate_makespan_parallel ~domains:3 ~trials:100 ~seed:5 inst policy
  in
  Alcotest.(check (float 0.)) "same mean" a.Engine.stats.Suu_prob.Stats.mean
    b.Engine.stats.Suu_prob.Stats.mean

let test_parallel_identical_samples () =
  (* Regression: fixed (seed, domains) must reproduce the exact sample
     vector run over run, not merely the same mean. *)
  let inst =
    Instance.independent ~p:[| [| 0.3; 0.6; 0.5 |]; [| 0.7; 0.2; 0.4 |] |]
  in
  let policy = Suu_algo.Suu_i.policy inst in
  let run () =
    (Engine.estimate_makespan_parallel ~domains:3 ~trials:200 ~seed:42 inst
       policy)
      .Engine.samples
  in
  Alcotest.(check (array (float 0.))) "identical samples" (run ()) (run ())

let test_seeded_deterministic () =
  let inst = Instance.independent ~p:[| [| 0.4; 0.6 |]; [| 0.5; 0.3 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let run () =
    (Engine.estimate_makespan_seeded ~trials:150 ~seed:11 inst policy)
      .Engine.samples
  in
  Alcotest.(check (array (float 0.))) "identical samples" (run ()) (run ())

let test_seeded_matches_sequential_stats () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6 |]; [| 0.7; 0.2 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let seq = Engine.estimate_makespan ~trials:3000 (Rng.create 4) inst policy in
  let seeded = Engine.estimate_makespan_seeded ~trials:3000 ~seed:4 inst policy in
  let diff =
    Float.abs
      (seq.Engine.stats.Suu_prob.Stats.mean
      -. seeded.Engine.stats.Suu_prob.Stats.mean)
  in
  let tol =
    Float.max 0.1
      (4.
      *. (seq.Engine.stats.Suu_prob.Stats.sem
         +. seeded.Engine.stats.Suu_prob.Stats.sem))
  in
  Alcotest.(check bool)
    (Printf.sprintf "means agree (diff %.3f, tol %.3f)" diff tol)
    true (diff < tol)

let test_seeded_stop_interrupts () =
  let inst = single_job 0.5 in
  let calls = ref 0 in
  let stop () =
    incr calls;
    !calls > 3
  in
  Alcotest.check_raises "interrupted" Engine.Interrupted (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~stop ~trials:1000 ~seed:1 inst
           (always_assign inst)
          : Engine.estimate))

let test_seeded_on_trial_hook () =
  let inst = single_job 0.5 in
  let seen = ref [] in
  let e =
    Engine.estimate_makespan_seeded
      ~on_trial:(fun k -> seen := k :: !seen)
      ~trials:7 ~seed:3 inst (always_assign inst)
  in
  Alcotest.(check (list int)) "once per trial, in order" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.rev !seen);
  (* The hook is pure observation: the estimate matches a hook-free run. *)
  let plain =
    Engine.estimate_makespan_seeded ~trials:7 ~seed:3 inst (always_assign inst)
  in
  Alcotest.(check (float 1e-12)) "estimate unperturbed"
    plain.Engine.stats.Suu_prob.Stats.mean e.Engine.stats.Suu_prob.Stats.mean;
  (* Exceptions raised by the hook propagate to the caller — the seam the
     serving layer's fault harness relies on. *)
  Alcotest.check_raises "hook exceptions escape" Exit (fun () ->
      ignore
        (Engine.estimate_makespan_seeded
           ~on_trial:(fun k -> if k = 2 then raise Exit)
           ~trials:10 ~seed:3 inst (always_assign inst)
          : Engine.estimate))

let test_parallel_single_domain () =
  let inst = Instance.independent ~p:[| [| 0.8 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan_parallel ~domains:1 ~trials:50 ~seed:1 inst policy
  in
  Alcotest.(check int) "trials" 50 e.Engine.trials

let test_parallel_more_domains_than_trials () =
  let inst = Instance.independent ~p:[| [| 0.9 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan_parallel ~domains:8 ~trials:3 ~seed:2 inst policy
  in
  Alcotest.(check int) "all trials done" 3
    (Array.length e.Engine.samples + e.Engine.incomplete)

(* --- hot-path regressions --- *)

let pinned_instance () =
  Instance.create
    ~p:[| [| 0.3; 0.6; 0.5; 0.25 |]; [| 0.7; 0.2; 0.4; 0.55 |] |]
    ~dag:(Suu_dag.Dag.create ~n:4 [ (0, 2); (1, 3) ])

let test_seeded_pinned_summary () =
  (* Golden values of the word-seeded estimator: word [w] of a seeded
     estimate runs on the stream [Rng.derive seed w], so the answer —
     and every cached or served answer built on it — is a pure function
     of (seed, trials) and must stay bit-identical across refactors, not
     merely statistically close. *)
  let inst = pinned_instance () in
  let e =
    Engine.estimate_makespan_seeded ~trials:100 ~seed:7 inst
      (Suu_algo.Suu_i.policy inst)
  in
  let s = e.Engine.stats in
  Alcotest.(check (float 1e-9)) "mean" 4.11 s.Suu_prob.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 1.3095993681 s.Suu_prob.Stats.stddev;
  Alcotest.(check (float 0.)) "min" 2. s.Suu_prob.Stats.min;
  Alcotest.(check (float 0.)) "max" 8. s.Suu_prob.Stats.max;
  Alcotest.(check int) "count" 100 s.Suu_prob.Stats.count;
  Alcotest.(check int) "incomplete" 0 e.Engine.incomplete;
  Alcotest.(check (array (float 0.)))
    "samples head (trial order)"
    [| 3.; 4.; 4.; 5.; 6.; 4.; 8.; 6.; 5.; 3. |]
    (Array.sub e.Engine.samples 0 10)

let test_unseeded_samples_trial_order () =
  (* On the scalar path, [estimate_makespan] draws its trials
     sequentially from the given generator, so the sample vector must
     equal back-to-back [run]s on an equally-seeded generator, in trial
     order. (The sample order of the unseeded estimator was historically
     reversed; this pins the fix.) The structure tag is stripped so the
     estimator cannot take the vectorized path, whose stream is
     different by design. *)
  let inst = pinned_instance () in
  let policy =
    let tagged = Suu_algo.Suu_i.policy inst in
    Policy.make "suu-i-untagged" tagged.Policy.fresh
  in
  let trials = 20 in
  let e = Engine.estimate_makespan ~trials (Rng.create 13) inst policy in
  let rng = Rng.create 13 in
  let expected = Array.make trials 0. in
  for k = 0 to trials - 1 do
    expected.(k) <- Float.of_int (Engine.run rng inst policy).Engine.makespan
  done;
  Alcotest.(check (array (float 0.))) "samples in trial order" expected
    e.Engine.samples

let test_parallel_equals_seeded_any_domains () =
  (* The parallel estimator derives word [w]'s stream from [(seed, w)]
     exactly like the seeded one, so summary and sample vector must be
     identical at every domain count — not just run-over-run stable. *)
  let inst = pinned_instance () in
  let policy = Suu_algo.Suu_i.policy inst in
  let trials = 120 and seed = 21 in
  let seeded = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
  List.iter
    (fun domains ->
      let par =
        Engine.estimate_makespan_parallel ~domains ~trials ~seed inst policy
      in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "samples identical at %d domains" domains)
        seeded.Engine.samples par.Engine.samples;
      Alcotest.(check int)
        (Printf.sprintf "incomplete identical at %d domains" domains)
        seeded.Engine.incomplete par.Engine.incomplete)
    [ 1; 2; 4 ]

let test_parallel_stop_interrupts () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "interrupted" Engine.Interrupted (fun () ->
      ignore
        (Engine.estimate_makespan_parallel ~domains:2
           ~stop:(fun () -> true)
           ~trials:100 ~seed:1 inst (always_assign inst)
          : Engine.estimate))

let test_parallel_on_trial_hook () =
  let inst = single_job 0.9 in
  let trials = 40 in
  (* Distinct slots per trial index, so concurrent hook calls from the
     worker domains never race. *)
  let seen = Array.make trials 0 in
  let e =
    Engine.estimate_makespan_parallel ~domains:3
      ~on_trial:(fun k -> seen.(k) <- seen.(k) + 1)
      ~trials ~seed:5 inst (always_assign inst)
  in
  Alcotest.(check int) "trials" trials e.Engine.trials;
  Array.iteri
    (fun k c ->
      Alcotest.(check int) (Printf.sprintf "trial %d hooked once" k) 1 c)
    seen;
  Alcotest.check_raises "hook exceptions escape" Exit (fun () ->
      ignore
        (Engine.estimate_makespan_parallel ~domains:2
           ~on_trial:(fun k -> if k = 7 then raise Exit)
           ~trials ~seed:5 inst (always_assign inst)
          : Engine.estimate))

(* --- word granularity ------------------------------------------------ *)

(* The unit of determinism is the 63-trial word: seeded, parallel (any
   domain count) and merged contiguous ranges — however they cut the
   words — must agree bit for bit, on the vectorized kernels and on the
   stepper alike, in every environment. *)

let word = Suu_sim.Lanes.lanes_per_word

let word_instance () =
  let rng = Rng.create 4242 in
  Instance.create
    ~p:(Array.init 3 (fun _ -> Array.init 9 (fun _ -> Rng.uniform rng 0.15 0.9)))
    ~dag:(Suu_dag.Dag.create ~n:9 [ (0, 3); (1, 3); (2, 5); (3, 7); (5, 8) ])

let word_policies inst =
  let greedy = Suu_algo.Suu_i.policy inst in
  [
    ("greedy", greedy);
    ( "oblivious",
      Policy.of_oblivious "obl" (Suu_algo.Suu_i_obl.schedule inst) );
    ("untagged", Policy.make "untagged" greedy.Policy.fresh);
  ]

let word_envs inst =
  [
    ("plain", None, None);
    ("releases", Some (Array.init (Instance.n inst) (fun j -> j mod 4)), None);
    ( "churn",
      None,
      Some
        (Suu_dyn.Churn.generate ~m:(Instance.m inst)
           { Suu_dyn.Churn.default_params with seed = 9; rate = 0.1 }) );
  ]

let bits e = Array.map Int64.bits_of_float e.Engine.samples

let check_same label (a : Engine.estimate) (b : Engine.estimate) =
  Alcotest.(check (array int64)) (label ^ ": samples") (bits a) (bits b);
  Alcotest.(check int) (label ^ ": trials") a.Engine.trials b.Engine.trials;
  Alcotest.(check int)
    (label ^ ": incomplete")
    a.Engine.incomplete b.Engine.incomplete

let test_word_identities () =
  let inst = word_instance () in
  let trials = 1000 and seed = 31 in
  let max_steps = Engine.default_horizon inst in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (ename, releases, availability) ->
          let label = pname ^ "/" ^ ename in
          let seeded =
            Engine.estimate_makespan_seeded ?releases ?availability ~trials
              ~seed inst policy
          in
          List.iter
            (fun domains ->
              check_same
                (Printf.sprintf "%s: parallel on %d domains" label domains)
                seeded
                (Engine.estimate_makespan_parallel ?releases ?availability
                   ~domains ~trials ~seed inst policy))
            [ 1; 2; 3 ];
          let parts =
            List.map
              (fun (lo, hi) ->
                Engine.estimate_makespan_range ?releases ?availability ~seed
                  ~lo ~hi inst policy)
              [ (0, 1); (1, 64); (64, 200); (200, 1000) ]
          in
          check_same (label ^ ": merged ranges") seeded
            (Engine.merge_ranges ~max_steps parts);
          (* Under a ci_target: parallel finds the same cut, the cut is an
             absolute word boundary, and the stopped estimate is the
             prefix of the unstopped one up to it. *)
          let stopped =
            Engine.estimate_makespan_seeded ?releases ?availability
              ~ci_target:0.25 ~trials:20_000 ~seed inst policy
          in
          let cut = stopped.Engine.trials in
          Alcotest.(check bool) (label ^ ": ci_target stopped early") true
            (cut < 20_000);
          Alcotest.(check int) (label ^ ": cut on a word boundary") 0
            (cut mod word);
          List.iter
            (fun domains ->
              check_same
                (Printf.sprintf "%s: ci_target parallel on %d domains" label
                   domains)
                stopped
                (Engine.estimate_makespan_parallel ?releases ?availability
                   ~ci_target:0.25 ~domains ~trials:20_000 ~seed inst policy))
            [ 1; 2; 3 ];
          check_same (label ^ ": ci_target cut = unstopped prefix") stopped
            (Engine.merge_ranges ~max_steps
               [
                 Engine.estimate_makespan_range ?releases ?availability ~seed
                   ~lo:0 ~hi:17 inst policy;
                 Engine.estimate_makespan_range ?releases ?availability ~seed
                   ~lo:17 ~hi:cut inst policy;
               ]))
        (word_envs inst))
    (word_policies inst)

let test_word_on_trial_in_order () =
  let inst = word_instance () in
  List.iter
    (fun (pname, policy) ->
      let seen = ref [] in
      let e =
        Engine.estimate_makespan_seeded
          ~on_trial:(fun k -> seen := k :: !seen)
          ~trials:150 ~seed:3 inst policy
      in
      Alcotest.(check (list int))
        (pname ^ ": every index once, in order")
        (List.init 150 Fun.id) (List.rev !seen);
      Alcotest.(check int) (pname ^ ": trials") 150 e.Engine.trials)
    (word_policies inst)

let test_word_stop_before_next_word () =
  (* [stop] is polled once per word, after the word's [on_trial] hooks
     and before its simulation: a stop raised during word 1's hooks
     interrupts before word 1 runs, so no index past word 1 is hooked. *)
  let inst = word_instance () in
  List.iter
    (fun (pname, policy) ->
      let hooked = ref (-1) and polls = ref 0 in
      let stop () =
        incr polls;
        !hooked >= word
      in
      Alcotest.check_raises (pname ^ ": interrupted") Engine.Interrupted
        (fun () ->
          ignore
            (Engine.estimate_makespan_seeded ~stop
               ~on_trial:(fun k -> hooked := k)
               ~trials:1000 ~seed:5 inst policy
              : Engine.estimate));
      Alcotest.(check int) (pname ^ ": one poll per word") 2 !polls;
      Alcotest.(check int) (pname ^ ": hooks stop at word 1") ((2 * word) - 1)
        !hooked)
    (word_policies inst)

(* --- release dates (online executions) --- *)

let test_release_blocks_until_due () =
  (* One certain job released at step 3: makespan exactly 4. *)
  let inst = single_job 1.0 in
  let o =
    Engine.run ~releases:[| 3 |] (Rng.create 1) inst (always_assign inst)
  in
  Alcotest.(check int) "waits for release" 4 o.Engine.makespan

let test_release_zero_is_offline () =
  let inst = single_job 1.0 in
  let a = Engine.run ~releases:[| 0 |] (Rng.create 1) inst (always_assign inst) in
  let b = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "same" b.Engine.makespan a.Engine.makespan

let test_release_with_precedence () =
  (* Chain 0 -> 1; job 1 released early, job 0 late: both constraints
     must hold, so completion takes release(0) + 2 steps. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        [| !target |])
  in
  let o = Engine.run ~releases:[| 5; 0 |] (Rng.create 1) inst policy in
  Alcotest.(check int) "release then chain" 7 o.Engine.makespan

let test_release_never_run_before_release_step () =
  (* Chain 0 -> 1 with certain probabilities: job 0 is done at step 0, so
     job 1's only remaining gate is its release date. The trace must show
     no work on job 1 before step 4 even though its predecessor finished
     long before, and completion exactly at the release step. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let releases = [| 0; 4 |] in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        Array.make (Instance.m inst) !target)
  in
  let history = Engine.trace ~releases (Rng.create 1) inst policy in
  List.iter
    (fun (t, a, _) ->
      Array.iter
        (fun j ->
          if j = 1 then
            Alcotest.(check bool)
              (Printf.sprintf "job 1 worked at step %d before release" t)
              true (t >= releases.(1)))
        a)
    history;
  let completion = Hashtbl.create 2 in
  List.iter
    (fun (t, _, completed) ->
      List.iter (fun j -> Hashtbl.replace completion j t) completed)
    history;
  Alcotest.(check int) "pred done immediately" 0 (Hashtbl.find completion 0);
  Alcotest.(check int) "job 1 completes at its release step" 4
    (Hashtbl.find completion 1)

let test_release_length_mismatch () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "length"
    (Suu_sim.Releases.Invalid
       (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }))
    (fun () ->
      ignore
        (Engine.run ~releases:[| 0; 1 |] (Rng.create 1) inst (always_assign inst)
          : Engine.outcome))

let test_release_negative () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "negative"
    (Suu_sim.Releases.Invalid
       (Suu_sim.Releases.Negative_release { job = 0; value = -1 }))
    (fun () ->
      ignore
        (Engine.run ~releases:[| -1 |] (Rng.create 1) inst (always_assign inst)
          : Engine.outcome))

let test_release_typed_validation () =
  (* The typed boundary, satellite-audited: every public entry that takes
     ?releases rejects hostile vectors with the same structured error,
     the result-style validator agrees, and the messages are printable. *)
  let inst = single_job 0.5 in
  let bad_len = [| 0; 1 |] and bad_neg = [| -3 |] in
  (match Suu_sim.Releases.validate ~n:1 bad_len with
  | Error (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }) -> ()
  | _ -> Alcotest.fail "validate: expected Length_mismatch");
  (match Suu_sim.Releases.validate ~n:1 bad_neg with
  | Error (Suu_sim.Releases.Negative_release { job = 0; value = -3 }) -> ()
  | _ -> Alcotest.fail "validate: expected Negative_release");
  Alcotest.(check bool)
    "error_to_string is non-empty" true
    (String.length
       (Suu_sim.Releases.error_to_string
          (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }))
    > 0);
  (* every estimator and the vectorized kernel's boundary reject too *)
  let expect_invalid label f =
    match f () with
    | exception Suu_sim.Releases.Invalid _ -> ()
    | _ -> Alcotest.fail (label ^ ": hostile releases accepted")
  in
  expect_invalid "seeded" (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~releases:bad_neg ~trials:1 ~seed:1
           inst (always_assign inst)
          : Engine.estimate));
  expect_invalid "estimate" (fun () ->
      ignore
        (Engine.estimate_makespan ~releases:bad_len ~trials:1 (Rng.create 1)
           inst (always_assign inst)
          : Engine.estimate));
  expect_invalid "lanes" (fun () ->
      ignore
        (Suu_sim.Lanes.create ~releases:bad_neg inst
           (Suu_core.Policy.of_oblivious "sched"
              (Suu_core.Oblivious.create ~m:1 ~cycle:[| [| 0 |] |] [||]))
          : Suu_sim.Lanes.t option));
  expect_invalid "range" (fun () ->
      ignore
        (Engine.estimate_makespan_range ~releases:bad_len ~seed:1 ~lo:0 ~hi:1
           inst (always_assign inst)
          : Engine.estimate));
  expect_invalid "parallel" (fun () ->
      ignore
        (Engine.estimate_makespan_parallel ~domains:2 ~releases:bad_neg
           ~trials:1 ~seed:1 inst (always_assign inst)
          : Engine.estimate))

let prop_releases_only_delay =
  QCheck.Test.make ~name:"release dates never speed things up (mean)" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let inst =
        Instance.independent
          ~p:
            (Array.init 2 (fun _ ->
                 Array.init n (fun _ -> Rng.uniform rng 0.3 0.9)))
      in
      let policy = Suu_algo.Suu_i.policy inst in
      let releases =
        Suu_workloads.Workload.arrivals (Rng.split rng) ~n ~mean_gap:2.
      in
      let mean r =
        (Engine.estimate_makespan ?releases:r ~trials:400 (Rng.create 5) inst
           policy)
          .Engine.stats.Suu_prob.Stats.mean
      in
      mean (Some releases) >= mean None -. 0.5)

let prop_makespan_at_least_critical_path =
  QCheck.Test.make ~name:"makespan >= longest path length" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let dag = Suu_dag.Gen.out_forest (Rng.split rng) ~n ~trees:2 in
      let inst =
        Instance.create
          ~p:
            (Array.init 2 (fun _ ->
                 Array.init n (fun _ -> Suu_prob.Rng.uniform rng 0.3 1.)))
          ~dag
      in
      let policy = Suu_algo.Suu_i.policy inst in
      let o = Engine.run (Rng.split rng) inst policy in
      (not o.Engine.completed)
      || o.Engine.makespan >= Suu_dag.Dag.longest_path dag)

let prop_all_jobs_complete =
  QCheck.Test.make ~name:"adaptive policy completes all instances" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 10 and m = 1 + Rng.int rng 4 in
      let dag = Suu_dag.Gen.random_dag (Rng.split rng) ~n ~edge_prob:0.2 in
      let inst =
        Instance.create
          ~p:
            (Array.init m (fun _ ->
                 Array.init n (fun _ -> Suu_prob.Rng.uniform rng 0.1 0.9)))
          ~dag
      in
      let o = Engine.run (Rng.split rng) inst (Suu_algo.Suu_i.policy inst) in
      o.Engine.completed)

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "empty instance" `Quick test_empty_instance;
          Alcotest.test_case "certain job" `Quick test_certain_job;
          Alcotest.test_case "ineligible jobs blocked" `Quick
            test_ineligible_jobs_not_run;
          Alcotest.test_case "precedence respected" `Quick
            test_precedence_order_respected;
          Alcotest.test_case "trace shape" `Quick test_trace_matches_assignments;
          Alcotest.test_case "max steps cap" `Quick test_max_steps_cap;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "default horizon" `Quick
            test_default_horizon_positive;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "combined machines" `Slow
            test_two_machines_combined;
          Alcotest.test_case "estimate counts" `Quick test_estimate_counts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Slow
            test_parallel_matches_sequential_stats;
          Alcotest.test_case "deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "identical samples" `Quick
            test_parallel_identical_samples;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "domains > trials" `Quick
            test_parallel_more_domains_than_trials;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "deterministic" `Quick test_seeded_deterministic;
          Alcotest.test_case "matches sequential" `Slow
            test_seeded_matches_sequential_stats;
          Alcotest.test_case "stop interrupts" `Quick
            test_seeded_stop_interrupts;
          Alcotest.test_case "on_trial hook" `Quick test_seeded_on_trial_hook;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "pinned seeded summary" `Quick
            test_seeded_pinned_summary;
          Alcotest.test_case "unseeded samples in trial order" `Quick
            test_unseeded_samples_trial_order;
          Alcotest.test_case "parallel = seeded at any domain count" `Quick
            test_parallel_equals_seeded_any_domains;
          Alcotest.test_case "parallel stop interrupts" `Quick
            test_parallel_stop_interrupts;
          Alcotest.test_case "parallel on_trial hook" `Quick
            test_parallel_on_trial_hook;
        ] );
      ( "words",
        [
          Alcotest.test_case "seeded = parallel = merged ranges" `Slow
            test_word_identities;
          Alcotest.test_case "on_trial sees every index in order" `Quick
            test_word_on_trial_in_order;
          Alcotest.test_case "stop before the next word" `Quick
            test_word_stop_before_next_word;
        ] );
      ( "releases",
        [
          Alcotest.test_case "blocks until due" `Quick
            test_release_blocks_until_due;
          Alcotest.test_case "zero = offline" `Quick test_release_zero_is_offline;
          Alcotest.test_case "with precedence" `Quick
            test_release_with_precedence;
          Alcotest.test_case "never run before release" `Quick
            test_release_never_run_before_release_step;
          Alcotest.test_case "length checked" `Quick test_release_length_mismatch;
          Alcotest.test_case "sign checked" `Quick test_release_negative;
          Alcotest.test_case "typed validation everywhere" `Quick
            test_release_typed_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_makespan_at_least_critical_path;
          QCheck_alcotest.to_alcotest prop_all_jobs_complete;
          QCheck_alcotest.to_alcotest prop_releases_only_delay;
        ] );
    ]
