module Churn = Suu_dyn.Churn
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Oblivious = Suu_core.Oblivious
module Engine = Suu_sim.Engine
module Rng = Suu_prob.Rng

(* --- timeline model ---------------------------------------------------- *)

let test_create_merges () =
  (* Overlapping and adjacent intervals of one machine merge into one. *)
  let t = Churn.create ~m:2 [ (0, 0, 4); (0, 3, 6); (0, 6, 8) ] in
  for s = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "machine 0 down at %d" s)
      false
      (Churn.available t ~machine:0 ~step:s)
  done;
  Alcotest.(check bool) "machine 0 back up" true
    (Churn.available t ~machine:0 ~step:8);
  Alcotest.(check bool) "machine 1 untouched" true
    (Churn.available t ~machine:1 ~step:3);
  Alcotest.(check int) "settle" 8 (Churn.settle t);
  Alcotest.(check int) "down steps" 8 (Churn.down_steps t ~upto:10);
  Alcotest.(check bool) "not none" false (Churn.is_none t)

let test_dead_absorbs () =
  (* Intervals at or past the death step are absorbed by it. *)
  let t = Churn.create ~m:1 ~dead:[ (0, 5) ] [ (0, 3, 10) ] in
  Alcotest.(check bool) "up before the crash" true
    (Churn.available t ~machine:0 ~step:2);
  Alcotest.(check bool) "down in the interval" false
    (Churn.available t ~machine:0 ~step:4);
  Alcotest.(check bool) "dead stays down" false
    (Churn.available t ~machine:0 ~step:1000);
  Alcotest.(check bool) "dead" true (Churn.dead t 0);
  Alcotest.(check int) "settle at the death step" 5 (Churn.settle t);
  (* [3,5) finite downtime plus [5,8) permanent = 5 machine-steps. *)
  Alcotest.(check int) "down steps count the death tail" 5
    (Churn.down_steps t ~upto:8)

let check_invalid name thunk =
  match thunk () with
  | (_ : Churn.t) -> Alcotest.failf "%s: expected Churn.Invalid" name
  | exception Churn.Invalid _ -> ()

let test_create_errors () =
  check_invalid "m = 0" (fun () -> Churn.create ~m:0 []);
  check_invalid "machine out of range" (fun () ->
      Churn.create ~m:2 [ (2, 0, 1) ]);
  check_invalid "negative start" (fun () -> Churn.create ~m:2 [ (0, -1, 3) ]);
  check_invalid "empty interval" (fun () -> Churn.create ~m:2 [ (0, 4, 4) ]);
  check_invalid "negative death step" (fun () ->
      Churn.create ~m:2 ~dead:[ (1, -1) ] []);
  (* Every error renders to a non-empty message. *)
  (try ignore (Churn.create ~m:2 [ (0, 4, 2) ] : Churn.t)
   with Churn.Invalid e ->
     Alcotest.(check bool) "message non-empty" true
       (String.length (Churn.error_to_string e) > 0))

let test_none () =
  let t = Churn.none ~m:3 in
  Alcotest.(check bool) "is none" true (Churn.is_none t);
  Alcotest.(check int) "m" 3 (Churn.m t);
  Alcotest.(check int) "settles immediately" 0 (Churn.settle t);
  Alcotest.(check int) "no downtime" 0 (Churn.down_steps t ~upto:1000);
  Alcotest.(check bool) "everything up" true
    (Churn.available t ~machine:2 ~step:17)

let test_union () =
  let a = Churn.create ~m:2 [ (0, 0, 3) ] in
  let b = Churn.create ~m:2 ~dead:[ (1, 4) ] [ (0, 2, 5) ] in
  let u = Churn.union a b in
  (* Down wherever either is down. *)
  for s = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "machine 0 down at %d" s)
      false
      (Churn.available u ~machine:0 ~step:s)
  done;
  Alcotest.(check bool) "machine 0 recovers" true
    (Churn.available u ~machine:0 ~step:5);
  Alcotest.(check bool) "machine 1 death survives the union" true
    (Churn.dead u 1);
  (* The union subsumes both arguments: never less downtime. *)
  let upto = 64 in
  Alcotest.(check bool) "subsumes a" true
    (Churn.down_steps u ~upto >= Churn.down_steps a ~upto);
  Alcotest.(check bool) "subsumes b" true
    (Churn.down_steps u ~upto >= Churn.down_steps b ~upto);
  check_invalid "machine-count mismatch" (fun () ->
      Churn.union a (Churn.none ~m:3))

(* --- seeded generation ------------------------------------------------- *)

let test_generate_deterministic () =
  let params = { Churn.default_params with seed = 7; rate = 0.2; perm = 0.1 } in
  let a = Churn.generate ~m:4 params in
  let b = Churn.generate ~m:4 params in
  Alcotest.(check int) "same downtime" (Churn.down_steps a ~upto:512)
    (Churn.down_steps b ~upto:512);
  for i = 0 to 3 do
    for s = 0 to 300 do
      if Churn.available a ~machine:i ~step:s
         <> Churn.available b ~machine:i ~step:s
      then Alcotest.failf "timelines differ at machine %d step %d" i s
    done
  done;
  (* Machine streams depend on (seed, machine) alone: growing m is a
     pure extension, existing machines keep their timelines. *)
  let wide = Churn.generate ~m:6 params in
  for i = 0 to 3 do
    for s = 0 to 300 do
      if Churn.available a ~machine:i ~step:s
         <> Churn.available wide ~machine:i ~step:s
      then Alcotest.failf "growing m reshuffled machine %d at step %d" i s
    done
  done

let test_generate_edges () =
  Alcotest.(check bool) "rate 0 is none" true
    (Churn.is_none (Churn.generate ~m:3 { Churn.default_params with rate = 0. }));
  Alcotest.(check bool) "steps 0 is none" true
    (Churn.is_none
       (Churn.generate ~m:3 { Churn.default_params with rate = 0.5; steps = 0 }));
  let bad name params =
    match Churn.generate ~m:2 params with
    | (_ : Churn.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  bad "rate > 1" { Churn.default_params with rate = 1.5 };
  bad "negative perm" { Churn.default_params with perm = -0.1 };
  bad "repair 0" { Churn.default_params with repair = 0 };
  bad "negative steps" { Churn.default_params with steps = -1 }

let test_spec_roundtrip () =
  let roundtrip p =
    match Churn.params_of_spec (Churn.spec_of_params p) with
    | Ok p' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (Churn.spec_of_params p))
          true (p = p')
    | Error e -> Alcotest.failf "roundtrip failed: %s" e
  in
  roundtrip Churn.default_params;
  roundtrip { Churn.seed = 42; rate = 0.125; repair = 3; perm = 0.01; steps = 64 };
  (* Fields parse in any order; omitted fields take defaults. *)
  (match Churn.params_of_spec "rate=0.3,seed=9" with
  | Ok p ->
      Alcotest.(check int) "seed" 9 p.Churn.seed;
      Alcotest.(check (float 0.)) "rate" 0.3 p.Churn.rate;
      Alcotest.(check int) "repair defaulted" Churn.default_params.Churn.repair
        p.Churn.repair
  | Error e -> Alcotest.failf "out-of-order spec rejected: %s" e);
  (match Churn.params_of_spec "" with
  | Ok p -> Alcotest.(check bool) "empty spec is defaults" true
      (p = Churn.default_params)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  let rejected name s =
    match Churn.params_of_spec s with
    | Ok _ -> Alcotest.failf "%s: expected rejection of %S" name s
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message non-empty" name)
          true
          (String.length e > 0)
  in
  rejected "duplicate key" "rate=0.1,rate=0.2";
  rejected "unknown key" "rate=0.1,mtbf=9";
  rejected "missing =" "rate";
  rejected "bad integer" "seed=abc";
  rejected "rate out of range" "rate=1.5";
  rejected "repair < 1" "repair=0"

(* --- mask and the engine seam ------------------------------------------ *)

let inst3 =
  Instance.independent
    ~p:[| [| 0.5; 0.4; 0.6 |]; [| 0.3; 0.7; 0.2 |] |]

let sched3 =
  (* 3-step prefix then a 2-step cycle, both machines always busy. *)
  Oblivious.create ~m:2
    ~cycle:[| [| 2; 1 |]; [| 1; 2 |] |]
    [| [| 0; 1 |]; [| 1; 0 |]; [| 2; 0 |] |]

let churn3 = Churn.create ~m:2 ~dead:[ (1, 9) ] [ (0, 1, 4) ]

let test_mask_shape () =
  let masked = Churn.mask churn3 sched3 in
  (* The masked prefix covers the settle point (9) on a prefix+cycle
     boundary: 3 + 3 whole cycles of length 2 = 9. *)
  Alcotest.(check bool) "prefix covers settle" true
    (Oblivious.prefix_length masked >= Churn.settle churn3);
  Alcotest.(check int) "cycle length preserved" 2
    (Oblivious.cycle_length masked);
  (* Down steps are idled, up steps keep their assignment. *)
  for s = 0 to 12 do
    let orig = Oblivious.step sched3 s and eff = Oblivious.step masked s in
    for i = 0 to 1 do
      let expect =
        if Churn.available churn3 ~machine:i ~step:s then orig.(i)
        else Suu_core.Assignment.idle_job
      in
      Alcotest.(check int)
        (Printf.sprintf "cell (%d,%d)" i s)
        expect eff.(i)
    done
  done;
  (* Masking the all-up timeline is the identity. *)
  Alcotest.(check bool) "none masks to itself" true
    (Churn.mask (Churn.none ~m:2) sched3 == sched3);
  check_invalid "mask machine mismatch" (fun () ->
      ignore (Churn.mask (Churn.none ~m:3) sched3 : Oblivious.t);
      Churn.none ~m:1)

let naive_policy name sched =
  (* Untagged: forces the scalar stepper, no vectorized shortcut. *)
  Policy.stateless name (fun st -> Oblivious.step sched st.Policy.step)

let test_gated_equals_masked_bitwise () =
  (* Gated stepper on the original schedule is draw-for-draw identical to
     the ungated stepper on the masked schedule: same seed, identical
     sample vectors. *)
  let masked = Churn.mask churn3 sched3 in
  let gated =
    Engine.estimate_makespan_seeded ~availability:churn3 ~trials:200 ~seed:77
      inst3
      (naive_policy "orig" sched3)
  in
  let plain =
    Engine.estimate_makespan_seeded ~trials:200 ~seed:77 inst3
      (naive_policy "masked" masked)
  in
  Alcotest.(check (array (float 0.))) "bit-identical samples"
    plain.Engine.samples gated.Engine.samples;
  Alcotest.(check int) "same incomplete count" plain.Engine.incomplete
    gated.Engine.incomplete

let test_tagged_oblivious_under_churn () =
  (* For a tagged oblivious policy the estimator serves the masked
     schedule on the fast path — identical to estimating the masked
     schedule directly. *)
  let masked = Churn.mask churn3 sched3 in
  let gated =
    Engine.estimate_makespan_seeded ~availability:churn3 ~trials:300 ~seed:5
      inst3
      (Policy.of_oblivious "orig" sched3)
  in
  let plain =
    Engine.estimate_makespan_seeded ~trials:300 ~seed:5 inst3
      (Policy.of_oblivious "masked" masked)
  in
  Alcotest.(check (array (float 0.))) "fast path serves the mask"
    plain.Engine.samples gated.Engine.samples

let test_scalar_vs_lanes_agreement () =
  (* The vectorized estimator under churn agrees with the gated scalar
     stepper in distribution: means within combined 95% CIs. *)
  let policy = Policy.of_oblivious "obl" sched3 in
  let scalar =
    Engine.estimate_makespan_seeded ~availability:churn3 ~trials:4000 ~seed:3
      inst3 (naive_policy "orig" sched3)
  in
  let lanes =
    Engine.estimate_makespan ~availability:churn3 ~trials:4000 (Rng.create 4)
      inst3 policy
  in
  let mean e = e.Engine.stats.Suu_prob.Stats.mean in
  let ci e = e.Engine.stats.Suu_prob.Stats.ci95 in
  Alcotest.(check bool) "means agree" true
    (Float.abs (mean scalar -. mean lanes) <= ci scalar +. ci lanes +. 1e-9)

let test_engine_mismatch () =
  Alcotest.check_raises "machine-count mismatch"
    (Invalid_argument "Engine: availability machine count mismatch")
    (fun () ->
      ignore
        (Engine.run ~availability:(Churn.none ~m:5) (Rng.create 1) inst3
           (Policy.of_oblivious "s" sched3)
          : Engine.outcome))

let test_none_availability_is_noop () =
  (* Passing the all-up timeline is indistinguishable from passing
     nothing — same seed, same samples. *)
  let policy = naive_policy "orig" sched3 in
  let a =
    Engine.estimate_makespan_seeded ~availability:(Churn.none ~m:2) ~trials:100
      ~seed:11 inst3 policy
  in
  let b = Engine.estimate_makespan_seeded ~trials:100 ~seed:11 inst3 policy in
  Alcotest.(check (array (float 0.))) "identical" b.Engine.samples
    a.Engine.samples

let test_permanent_death_can_strand () =
  (* A job only one machine can serve never finishes once that machine
     dies before serving it: the run hits the cap. *)
  let inst = Instance.independent ~p:[| [| 0.9; 0. |]; [| 0.; 0.9 |] |] in
  let churn = Churn.create ~m:2 ~dead:[ (0, 0) ] [] in
  let sched = Oblivious.create ~m:2 ~cycle:[| [| 0; 1 |] |] [||] in
  let o =
    Engine.run ~max_steps:200 ~availability:churn (Rng.create 8) inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check bool) "stranded" false o.Engine.completed

let () =
  Alcotest.run "dyn"
    [
      ( "timeline",
        [
          Alcotest.test_case "interval merge" `Quick test_create_merges;
          Alcotest.test_case "death absorbs intervals" `Quick test_dead_absorbs;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "none" `Quick test_none;
          Alcotest.test_case "union" `Quick test_union;
        ] );
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "edges" `Quick test_generate_edges;
          Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mask shape" `Quick test_mask_shape;
          Alcotest.test_case "gated = masked (bitwise)" `Quick
            test_gated_equals_masked_bitwise;
          Alcotest.test_case "tagged fast path" `Quick
            test_tagged_oblivious_under_churn;
          Alcotest.test_case "scalar vs lanes" `Quick
            test_scalar_vs_lanes_agreement;
          Alcotest.test_case "machine-count gate" `Quick test_engine_mismatch;
          Alcotest.test_case "none is a no-op" `Quick
            test_none_availability_is_noop;
          Alcotest.test_case "permanent death strands" `Quick
            test_permanent_death_can_strand;
        ] );
    ]
