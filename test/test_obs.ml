(* The observability core: spans, histograms, trace-event export,
   Prometheus exposition, and the engine's execution observer.

   The trace-event writer has its own standalone JSON emitter (lib/obs
   cannot depend on the serving layer), so the round-trip tests here
   close the loop by parsing its output with the service JSON parser. *)

module Trace = Suu_obs.Trace
module Trace_event = Suu_obs.Trace_event
module Histogram = Suu_obs.Histogram
module Prom = Suu_obs.Prom
module Exec_trace = Suu_obs.Exec_trace
module Json = Suu_service.Json
module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious
module Suu_i_obl = Suu_algo.Suu_i_obl
module Policy = Suu_core.Policy
module Engine = Suu_sim.Engine

(* --- spans --- *)

let test_span_nesting () =
  let tr = Trace.create ~enabled:true () in
  let v =
    Trace.with_span tr "outer" (fun () ->
        1
        + Trace.with_span tr ~cat:"in" ~attrs:[ ("k", "v") ] "inner" (fun () ->
              41))
  in
  Alcotest.(check int) "value through spans" 42 v;
  match Trace.spans tr with
  | [ outer; inner ] ->
      Alcotest.(check string) "parent first" "outer" outer.Trace.name;
      Alcotest.(check string) "child second" "inner" inner.Trace.name;
      Alcotest.(check int) "root depth" 0 outer.Trace.depth;
      Alcotest.(check int) "nested depth" 1 inner.Trace.depth;
      Alcotest.(check string) "category" "in" inner.Trace.cat;
      Alcotest.(check (list (pair string string)))
        "attributes" [ ("k", "v") ] inner.Trace.attrs;
      Alcotest.(check bool) "child starts inside parent" true
        (inner.Trace.start_ns >= outer.Trace.start_ns);
      Alcotest.(check bool) "child ends inside parent" true
        (inner.Trace.start_ns +. inner.Trace.dur_ns
        <= outer.Trace.start_ns +. outer.Trace.dur_ns)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception_and_disabled () =
  let tr = Trace.create ~enabled:true () in
  (match Trace.with_span tr "boom" (fun () -> failwith "kept") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "kept" msg);
  Alcotest.(check int) "failing span still recorded" 1
    (List.length (Trace.spans tr));
  Alcotest.(check bool) "disabled tracer reports disabled" false
    (Trace.enabled Trace.disabled);
  Trace.with_span Trace.disabled "x" (fun () -> ());
  Alcotest.(check int) "disabled tracer records nothing" 0
    (List.length (Trace.spans Trace.disabled))

let test_span_ring_wraparound () =
  let tr = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 6 do
    Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Trace.name) (Trace.spans tr) in
  Alcotest.(check (list string))
    "keeps the most recent capacity spans"
    [ "s3"; "s4"; "s5"; "s6" ] names;
  Alcotest.(check int) "dropped counts the overwritten" 2 (Trace.dropped tr)

(* --- histograms --- *)

let test_histogram_quantile_bounds () =
  let h = Histogram.create () in
  let n = 10_000 in
  for i = 1 to n do
    Histogram.add h (Float.of_int i)
  done;
  Alcotest.(check int) "count" n (Histogram.count h);
  Alcotest.(check (float 1e-6))
    "sum"
    (Float.of_int (n * (n + 1) / 2))
    (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "exact min" 1. (Histogram.min_value h);
  Alcotest.(check (float 1e-9))
    "exact max" (Float.of_int n) (Histogram.max_value h);
  (* Every reported quantile is within the layout's advertised relative
     error of the exact order statistic. *)
  let err = Histogram.relative_error h in
  List.iter
    (fun q ->
      let exact = Float.max 1. (Float.of_int n *. q) in
      let got = Histogram.quantile h q in
      if Float.abs (got -. exact) > (err +. 0.01) *. exact then
        Alcotest.failf "q=%.2f: estimate %.1f vs exact %.1f (budget %.0f%%)" q
          got exact (err *. 100.))
    [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99 ];
  Alcotest.(check (float 1e-9))
    "q=1 clamps to the exact max" (Float.of_int n) (Histogram.quantile h 1.);
  let occupancy =
    List.fold_left (fun a (_, c) -> a + c) 0 (Histogram.buckets h)
  in
  Alcotest.(check int) "buckets account for every sample" n occupancy;
  Histogram.add h Float.nan;
  Alcotest.(check int) "NaN is ignored" n (Histogram.count h);
  let c = Histogram.copy h in
  Histogram.merge_into h ~into:c;
  Alcotest.(check int) "merge into the copy doubles it" (2 * n)
    (Histogram.count c);
  Alcotest.(check int) "the original is untouched" n (Histogram.count h)

(* --- histogram merge + snapshot round-trip (the coordinator's path) --- *)

let test_histogram_merge () =
  let mk vals =
    let h = Histogram.create () in
    List.iter (Histogram.add h) vals;
    h
  in
  let a = mk [ 1.; 2.; 1000. ] and b = mk [ 0.5; 2.; 3. ] and c = mk [] in
  let m = Histogram.merge [ a; b; c ] in
  Alcotest.(check int) "counts add" 6 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "sums add" 1008.5 (Histogram.sum m);
  Alcotest.(check (float 1e-9)) "min combines" 0.5 (Histogram.min_value m);
  Alcotest.(check (float 1e-9)) "max combines" 1000. (Histogram.max_value m);
  (* Merging is the same as having observed everything in one histogram:
     bucket-exact, not approximate. *)
  let all = mk [ 1.; 2.; 1000.; 0.5; 2.; 3. ] in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bucket-identical to single-histogram observation" (Histogram.buckets all)
    (Histogram.buckets m);
  Alcotest.(check int) "inputs untouched" 3 (Histogram.count a);
  (match Histogram.merge [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty merge accepted");
  let odd = Histogram.create ~lo:1e-3 ~growth:1.3 () in
  match Histogram.merge [ a; odd ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch accepted"

(* A respawned worker reports from zero. Folding its reset snapshot
   into the fleet merge must be a no-op — never a step backwards — and
   merging disjoint-bucket histograms must be exact, not approximate. *)
let test_histogram_merge_disjoint_and_reset () =
  let mk vals =
    let h = Histogram.create () in
    List.iter (Histogram.add h) vals;
    h
  in
  (* Samples three decades apart: no shared bucket between a and b. *)
  let a = mk [ 0.001; 0.002; 0.003 ] and b = mk [ 10.; 20.; 30. ] in
  let keys h = List.map fst (Histogram.buckets h) in
  List.iter
    (fun k ->
      if List.mem k (keys b) then
        Alcotest.failf "buckets not disjoint at bound %g" k)
    (keys a);
  let m = Histogram.merge [ a; b ] in
  Alcotest.(check int) "disjoint counts add" 6 (Histogram.count m);
  Alcotest.(check int)
    "disjoint occupancy is the union"
    (List.length (Histogram.buckets a) + List.length (Histogram.buckets b))
    (List.length (Histogram.buckets m));
  (* The respawned worker arrives over the wire as an empty snapshot. *)
  let reset = Histogram.import (Histogram.export (Histogram.create ())) in
  let m' = Histogram.merge [ a; b; reset ] in
  Alcotest.(check int)
    "reset worker leaves count alone" (Histogram.count m) (Histogram.count m');
  Alcotest.(check (float 1e-9))
    "reset worker leaves sum alone" (Histogram.sum m) (Histogram.sum m');
  Alcotest.(check (list (pair (float 1e-9) int)))
    "reset worker leaves buckets alone" (Histogram.buckets m)
    (Histogram.buckets m');
  (* Never backwards: every merged aggregate dominates every input's. *)
  List.iter
    (fun h ->
      Alcotest.(check bool) "count never backwards" true
        (Histogram.count m' >= Histogram.count h);
      Alcotest.(check bool) "sum never backwards" true
        (Histogram.sum m' >= Histogram.sum h);
      Alcotest.(check bool) "min never backwards" true
        (Histogram.min_value m' <= Histogram.min_value h);
      Alcotest.(check bool) "max never backwards" true
        (Histogram.max_value m' >= Histogram.max_value h))
    [ a; b; reset ]

let test_histogram_snapshot_roundtrip () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.2; 5.; 5.; 123456.; 1e-9 ];
  let s = Histogram.export h in
  let h2 = Histogram.import s in
  Alcotest.(check int) "count survives" (Histogram.count h) (Histogram.count h2);
  Alcotest.(check (float 1e-9)) "sum survives" (Histogram.sum h)
    (Histogram.sum h2);
  Alcotest.(check (float 1e-9))
    "min survives" (Histogram.min_value h) (Histogram.min_value h2);
  Alcotest.(check (float 1e-9))
    "max survives" (Histogram.max_value h) (Histogram.max_value h2);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets survive" (Histogram.buckets h) (Histogram.buckets h2);
  (* An empty histogram round-trips too (no occupied buckets, no min). *)
  let e = Histogram.import (Histogram.export (Histogram.create ())) in
  Alcotest.(check int) "empty round-trip" 0 (Histogram.count e);
  (* Hostile snapshots are rejected, not silently mis-imported. *)
  List.iter
    (fun s ->
      match Histogram.import s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "hostile snapshot accepted")
    [
      { s with Histogram.occupied = [ (-1, 3) ] };
      { s with Histogram.occupied = [ (s.Histogram.layout_buckets, 1) ] };
      { s with Histogram.occupied = [ (0, -2) ] };
      { s with Histogram.layout_buckets = 0 };
    ]

let test_counters_merge_snapshots () =
  let merged =
    Suu_obs.Counters.merge_snapshots
      [
        [ ("a", 1); ("b", 2) ];
        [ ("b", 40); ("c", 5) ];
        [];
        [ ("a", 6) ];
      ]
  in
  Alcotest.(check (list (pair string int)))
    "summed by name, sorted"
    [ ("a", 7); ("b", 42); ("c", 5) ]
    merged;
  Alcotest.(check (list (pair string int)))
    "empty fold" []
    (Suu_obs.Counters.merge_snapshots [])

(* Counter edges of the same fleet-merge path: snapshots with no names
   in common sum to their concatenation, a respawned worker's
   zeroed-out snapshot changes nothing, and the merged value of every
   name dominates its value in every contributing snapshot. *)
let test_counters_merge_disjoint_and_reset () =
  let merge = Suu_obs.Counters.merge_snapshots in
  let s0 = [ ("requests", 9); ("ok", 8) ]
  and s1 = [ ("errors", 1); ("retries", 4) ] in
  Alcotest.(check (list (pair string int)))
    "disjoint names concatenate, sorted"
    [ ("errors", 1); ("ok", 8); ("requests", 9); ("retries", 4) ]
    (merge [ s0; s1 ]);
  (* A worker fresh from respawn: same names, all zero. *)
  let reset = [ ("errors", 0); ("ok", 0); ("requests", 0); ("retries", 0) ] in
  Alcotest.(check (list (pair string int)))
    "reset snapshot is a merge no-op"
    (merge [ s0; s1 ])
    (merge [ s0; s1; reset ]);
  let merged = merge [ s0; s1; reset ] in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name merged with
          | Some m when m >= v -> ()
          | Some m ->
              Alcotest.failf "merged %s went backwards: %d < %d" name m v
          | None -> Alcotest.failf "merged lost counter %s" name)
        snap)
    [ s0; s1; reset ]

(* Process-wide engine counters are shared across tests, so assert on
   before/after deltas, not absolute values. One vectorized estimate of
   [trials] must add ceil(trials / lanes_per_word) to
   [engine_vector_words_total]; an estimate cut short by its ci_target
   must bump [engine_early_stops_total]. *)
let test_engine_vector_counters () =
  let get name =
    Option.value ~default:0 (Suu_obs.Counters.find Engine.counters name)
  in
  let inst =
    Instance.independent ~p:[| [| 0.5; 0.6 |]; [| 0.7; 0.4 |] |]
  in
  let policy = Suu_algo.Suu_i.policy inst in
  let words0 = get "engine_vector_words_total"
  and stops0 = get "engine_early_stops_total" in
  let trials = 100 in
  ignore
    (Engine.estimate_makespan ~trials (Suu_prob.Rng.create 5) inst policy);
  let expect_words =
    (trials + Suu_sim.Lanes.lanes_per_word - 1) / Suu_sim.Lanes.lanes_per_word
  in
  Alcotest.(check int) "vector words counted" expect_words
    (get "engine_vector_words_total" - words0);
  Alcotest.(check int) "no early stop without target" 0
    (get "engine_early_stops_total" - stops0);
  let e =
    Engine.estimate_makespan ~ci_target:0.5 ~trials:50_000
      (Suu_prob.Rng.create 6) inst policy
  in
  Alcotest.(check bool) "estimate stopped early" true (e.Engine.trials < 50_000);
  Alcotest.(check int) "early stop counted" 1
    (get "engine_early_stops_total" - stops0)

(* --- trace-event JSON, round-tripped through the service codec --- *)

let sample_events () =
  [
    Trace_event.process_name ~pid:1 "trial 1";
    Trace_event.thread_name ~pid:1 ~tid:0 "machine 0";
    Trace_event.complete ~cat:"exec" ~pid:1 ~tid:0 ~ts_us:0. ~dur_us:3.
      ~args:
        [
          ("p", Trace_event.Num 0.25);
          ("job", Trace_event.Int 2);
          ("why", Trace_event.Str "a\"b\\c\n");
          ("bad", Trace_event.Num Float.nan);
        ]
      "job 2";
    Trace_event.instant ~cat:"exec" ~pid:1 ~tid:0 ~ts_us:3. "complete job 2";
    Trace_event.counter ~cat:"exec" ~pid:1 ~ts_us:3. "unfinished"
      [ ("jobs", 7.) ];
  ]

let test_trace_event_roundtrip () =
  let events = sample_events () in
  match Json.of_string (Trace_event.to_json events) with
  | Error msg -> Alcotest.failf "service parser rejected the trace: %s" msg
  | Ok (Json.List parsed) -> (
      Alcotest.(check int)
        "event count" (List.length events) (List.length parsed);
      let phases =
        List.map
          (fun e ->
            match Json.member "ph" e with Some (Json.Str ph) -> ph | _ -> "?")
          parsed
      in
      Alcotest.(check (list string))
        "phases" [ "M"; "M"; "X"; "i"; "C" ] phases;
      let slice = List.nth parsed 2 in
      Alcotest.(check (option int))
        "duration survives" (Some 3)
        (Option.bind (Json.member "dur" slice) Json.to_int);
      match Json.member "args" slice with
      | Some args ->
          Alcotest.(check (option string))
            "escaped string survives" (Some "a\"b\\c\n")
            (match Json.member "why" args with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check bool) "NaN became null" true
            (Json.member "bad" args = Some Json.Null)
      | None -> Alcotest.fail "slice lost its args")
  | Ok _ -> Alcotest.fail "expected a JSON array"

let test_trace_event_write_matches_to_json () =
  let events = sample_events () in
  let path = Filename.temp_file "suu_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Trace_event.write oc events);
      let streamed = In_channel.with_open_text path In_channel.input_all in
      match
        (Json.of_string streamed, Json.of_string (Trace_event.to_json events))
      with
      | Ok a, Ok b ->
          Alcotest.(check bool)
            "streamed and buffered forms parse equal" true (a = b)
      | Error msg, _ | _, Error msg -> Alcotest.failf "parse failed: %s" msg)

(* --- Prometheus exposition --- *)

let test_prom_rendering () =
  let h = Histogram.create ~lo:1. ~growth:2. ~buckets:4 () in
  List.iter (Histogram.add h) [ 0.5; 3.; 3.; 100. ];
  let body =
    Prom.render
      [
        Prom.counter ~name:"suu_requests_total" ~help:"served" 12.;
        Prom.gauge ~name:"bad name!" ~help:"gets sanitised" 3.;
        Prom.histogram ~name:"suu_latency_ms" ~help:"ok latency" h;
      ]
  in
  let lines = String.split_on_char '\n' body in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter header" true
    (has "# TYPE suu_requests_total counter");
  Alcotest.(check bool) "counter sample" true (has "suu_requests_total 12");
  Alcotest.(check bool) "invalid name sanitised" true (has "bad_name_ 3");
  Alcotest.(check bool) "histogram count" true (has "suu_latency_ms_count 4");
  Alcotest.(check bool) "+Inf bucket closes the family" true
    (has "suu_latency_ms_bucket{le=\"+Inf\"} 4");
  (* Buckets are cumulative: the counts along the le series never
     decrease. *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"suu_latency_ms_bucket" l then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  Alcotest.(check bool) "cumulative buckets" true
    (List.sort compare bucket_counts = bucket_counts
    && bucket_counts <> []);
  (* No sample or header line may be malformed enough to smuggle a
     newline or an empty metric name. *)
  List.iter
    (fun l ->
      if l <> "" && not (String.starts_with ~prefix:"#" l) then
        match String.index_opt l ' ' with
        | Some i when i > 0 -> ()
        | _ -> Alcotest.failf "malformed sample line %S" l)
    lines

(* --- execution traces --- *)

let tiny_trial () =
  {
    Exec_trace.index = 1;
    seed = 99;
    makespan = 3;
    truncated = false;
    steps =
      [
        { Exec_trace.t = 1; assignment = [| 0; 1 |]; completed = [] };
        { Exec_trace.t = 2; assignment = [| 0; -1 |]; completed = [ 1 ] };
        { Exec_trace.t = 3; assignment = [| 0; -1 |]; completed = [ 0 ] };
      ];
  }

let quarter ~machine:_ ~job:_ = 0.25

let test_exec_trace_mass_and_csv () =
  let trial = tiny_trial () in
  let traj = Exec_trace.mass_trajectory ~prob:quarter ~jobs:2 trial in
  Alcotest.(check (list (pair int (array (float 1e-9)))))
    "capped accumulation per recorded step"
    [ (1, [| 0.25; 0.25 |]); (2, [| 0.5; 0.25 |]); (3, [| 0.75; 0.25 |]) ]
    traj;
  let rows = Exec_trace.mass_csv_rows ~prob:quarter ~jobs:2 trial in
  Alcotest.(check int) "one row per (step, job)" 6 (List.length rows);
  Alcotest.(check (list string))
    "first row" [ "1"; "1"; "0"; "0.250000"; "0" ] (List.hd rows);
  Alcotest.(check (list string))
    "completion sticks once marked"
    [ "1"; "3"; "1"; "0.250000"; "1" ]
    (List.nth rows 5)

let test_exec_trace_events_run_length () =
  let trial = tiny_trial () in
  let events =
    Exec_trace.to_events ~prob:quarter ~machines:2 ~jobs:2 trial
  in
  let by_ph ph =
    List.filter (fun e -> String.equal e.Trace_event.ph ph) events
  in
  (* Machine 0 ran job 0 for all three steps: one run-length-encoded
     slice. Machine 1 ran job 1 for one step. Slices are emitted as
     their runs close, so order on the name. *)
  (match
     List.sort
       (fun a b -> compare a.Trace_event.name b.Trace_event.name)
       (by_ph "X")
   with
  | [ a; b ] ->
      Alcotest.(check string) "machine 0 slice" "job 0" a.Trace_event.name;
      Alcotest.(check (float 1e-9)) "slice start" 0. a.Trace_event.ts_us;
      Alcotest.(check (float 1e-9)) "slice spans the run" 3. a.Trace_event.dur_us;
      Alcotest.(check string) "machine 1 slice" "job 1" b.Trace_event.name;
      Alcotest.(check (float 1e-9)) "short slice" 1. b.Trace_event.dur_us
  | l -> Alcotest.failf "expected 2 slices, got %d" (List.length l));
  Alcotest.(check int) "one instant per completion" 2
    (List.length (by_ph "i"));
  Alcotest.(check int) "one counter sample per step" 3
    (List.length (by_ph "C"));
  Alcotest.(check int) "process + machine metadata" 3
    (List.length (by_ph "M"))

(* --- observer bit-identity on the real engine --- *)

let observer_instance () =
  let p =
    Array.init 3 (fun i ->
        Array.init 5 (fun j ->
            0.15 +. (0.6 *. Float.of_int ((i + (2 * j)) mod 7) /. 7.)))
  in
  Instance.create ~p ~dag:(Suu_dag.Dag.create ~n:5 [ (0, 2); (1, 3) ])

let indep_instance () =
  let p =
    Array.init 3 (fun i ->
        Array.init 5 (fun j ->
            0.2 +. (0.5 *. Float.of_int ((1 + i + (3 * j)) mod 5) /. 5.)))
  in
  Instance.create ~p ~dag:(Suu_dag.Dag.empty 5)

let check_bit_identity name inst policy =
  let trials = 16 and seed = 2026 in
  let observer, captured = Exec_trace.collector ~sample_every:1 () in
  let a = Engine.estimate_makespan_seeded ~observer ~trials ~seed inst policy in
  let b = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
  let bits e = Array.map Int64.bits_of_float e.Engine.samples in
  Alcotest.(check (array int64))
    (name ^ ": samples bit-identical under observation")
    (bits b) (bits a);
  Alcotest.(check int)
    (name ^ ": truncation count unchanged")
    b.Engine.incomplete a.Engine.incomplete;
  let seen = captured () in
  Alcotest.(check int) (name ^ ": every trial captured") trials
    (List.length seen);
  List.iteri
    (fun k tr ->
      Alcotest.(check int) (name ^ ": trial order") k tr.Exec_trace.index;
      if not tr.Exec_trace.truncated then
        Alcotest.(check int)
          (name ^ ": recorded history covers the whole trial")
          tr.Exec_trace.makespan
          (List.length tr.Exec_trace.steps))
    seen

let test_observer_bit_identity_adaptive () =
  let inst = observer_instance () in
  check_bit_identity "adaptive" inst (Suu_algo.Suu_i.policy inst)

let test_observer_bit_identity_oblivious () =
  let inst = indep_instance () in
  check_bit_identity "oblivious" inst
    (Policy.of_oblivious "suu-i-obl" (Suu_i_obl.schedule inst))

(* An observed oblivious trial is replayed on the naive stepper: its
   recorded assignments must be exactly the schedule's columns, whatever
   path the estimate itself took. *)
let test_observer_leap_reconstruction () =
  let inst = indep_instance () in
  let sched = Suu_i_obl.schedule inst in
  let observer, captured = Exec_trace.collector ~sample_every:1 () in
  let _ =
    Engine.estimate_makespan_seeded ~observer ~trials:4 ~seed:7 inst
      (Policy.of_oblivious "suu-i-obl" sched)
  in
  List.iter
    (fun tr ->
      List.iter
        (fun (st : Exec_trace.step) ->
          Alcotest.(check (array int))
            "assignment is the schedule column"
            (Oblivious.step sched (st.Exec_trace.t - 1))
            st.Exec_trace.assignment)
        tr.Exec_trace.steps)
    (captured ())

let test_observer_sampling_and_limit () =
  let inst = indep_instance () in
  let policy = Suu_algo.Suu_i.policy inst in
  let observer, captured = Exec_trace.collector ~sample_every:3 ~limit:2 () in
  let _ = Engine.estimate_makespan_seeded ~observer ~trials:7 ~seed:5 inst policy in
  let seen = captured () in
  Alcotest.(check (list int))
    "sample_every selects k mod s = 0" [ 0; 3; 6 ]
    (List.map (fun tr -> tr.Exec_trace.index) seen);
  List.iter
    (fun tr ->
      Alcotest.(check bool) "limit caps recorded steps" true
        (List.length tr.Exec_trace.steps <= 2))
    seen

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception + disabled" `Quick
            test_span_exception_and_disabled;
          Alcotest.test_case "ring wraparound" `Quick test_span_ring_wraparound;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantile error bounds" `Quick
            test_histogram_quantile_bounds;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge disjoint + respawn reset" `Quick
            test_histogram_merge_disjoint_and_reset;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_histogram_snapshot_roundtrip;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge snapshots" `Quick
            test_counters_merge_snapshots;
          Alcotest.test_case "merge disjoint + respawn reset" `Quick
            test_counters_merge_disjoint_and_reset;
          Alcotest.test_case "engine vector + early-stop counters" `Quick
            test_engine_vector_counters;
        ] );
      ( "trace-event",
        [
          Alcotest.test_case "round-trip via service JSON" `Quick
            test_trace_event_roundtrip;
          Alcotest.test_case "streamed = buffered" `Quick
            test_trace_event_write_matches_to_json;
        ] );
      ( "prom",
        [ Alcotest.test_case "exposition format" `Quick test_prom_rendering ] );
      ( "exec-trace",
        [
          Alcotest.test_case "mass trajectory + CSV" `Quick
            test_exec_trace_mass_and_csv;
          Alcotest.test_case "run-length slices" `Quick
            test_exec_trace_events_run_length;
        ] );
      ( "observer",
        [
          Alcotest.test_case "bit-identity (adaptive)" `Quick
            test_observer_bit_identity_adaptive;
          Alcotest.test_case "bit-identity (oblivious)" `Quick
            test_observer_bit_identity_oblivious;
          Alcotest.test_case "leap reconstruction" `Quick
            test_observer_leap_reconstruction;
          Alcotest.test_case "sampling + limit" `Quick
            test_observer_sampling_and_limit;
        ] );
    ]
