(* One benchmark run: set the server up, drive it for the measured
   phase, check every answer, and compute the metrics. *)

module Json = Suu_service.Json
module Clock = Suu_obs.Clock

type opts = {
  exe : string;  (** the [suu] binary under test *)
  out_dir : string;  (** server logs and trace files *)
  workload : Gen.t;
  seed : int;
  seconds : float;
  trace : bool;
  hot_keys : int option;  (** a smaller hot set, for the benchmark's tests *)
}

(* --- accounting and answer checks --- *)

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, for the log *)
}

let fail acct fmt =
  Printf.ksprintf
    (fun msg ->
      acct.failed <- acct.failed + 1;
      if acct.failed <= 10 then acct.notes <- msg :: acct.notes)
    fmt

(* [s] without the first occurrence of [sub]. *)
let remove_first sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec matches i j = j = lsub || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec find i =
    if i + lsub > ls then s
    else if matches i 0 then
      String.sub s 0 i ^ String.sub s (i + lsub) (ls - i - lsub)
    else find (i + 1)
  in
  find 0

let drop_cached line =
  remove_first "\"cached\":true," (remove_first "\"cached\":false," line)

(* An answer's result bytes: the line without its id and cache flag, so
   a hit compares equal to the miss that filled its key. *)
let result_bytes ~id line =
  drop_cached (remove_first (Printf.sprintf "\"id\":%S," id) line)

type answer = {
  k : int;  (** measured index *)
  id : string;
  req : Gen.req;
  lat_ms : float;
  line : string;
  mean : float;
}

(* Every answer must be ok, come back in order, carry the requested
   trial count with no incomplete trial, and agree byte for byte with
   every other answer for the same key ([refs], across hits, misses and
   server processes). *)
let check acct refs ~id (req : Gen.req) line =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        fail acct "%s: %s" id msg;
        None)
      fmt
  in
  match Json.of_string line with
  | Error e -> bad "unparseable answer (%s)" e
  | Ok j -> (
      let field f conv = Option.bind (Json.member f j) conv in
      match
        ( field "status" Json.to_str,
          field "id" Json.to_str,
          field "trials" Json.to_int,
          field "incomplete" Json.to_int,
          field "mean" Json.to_num )
      with
      | Some "ok", Some got, Some trials, Some 0, Some mean
        when got = id && trials = req.cls.trials -> (
          let r = result_bytes ~id line in
          match Hashtbl.find_opt refs req.key with
          | None ->
              Hashtbl.add refs req.key r;
              Some mean
          | Some r0 when r0 = r -> Some mean
          | Some _ -> bad "result differs from an earlier answer for its key")
      | _ -> bad "wrong answer %s" (String.sub line 0 (min 200 (String.length line)))
      )

(* --- driving the server --- *)

let control acct server line =
  acct.attempted <- acct.attempted + 1;
  Server.send server line;
  let answer = Server.recv server in
  match Json.of_string answer with
  | Ok j when Option.bind (Json.member "status" j) Json.to_str = Some "ok" -> j
  | _ ->
      fail acct "control request failed: %s" answer;
      Json.Obj []

let ping acct s = ignore (control acct s {|{"op":"ping","id":"ping"}|})

(* Raw counters. The coordinator's own admission-to-emission latency is
   only in its Prometheus exposition; its sum and count are added to the
   raw object as ["coord_latency"]. *)
let stats (w : Gen.t) acct s =
  let raw = control acct s {|{"op":"stats","id":"stats","format":"raw"}|} in
  if not w.coordinator then raw
  else
    let prom =
      control acct s {|{"op":"stats","id":"prom","format":"prom"}|}
      |> Json.member "prom"
      |> Fun.flip Option.bind Json.to_str
      |> Option.value ~default:""
    in
    let sample name =
      let value l =
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None
      in
      Json.Num
        (Option.value ~default:0.
           (List.find_map value (String.split_on_char '\n' prom)))
    in
    let latency =
      Json.Obj
        [
          ("sum", sample "suu_coord_request_latency_ms_sum");
          ("count", sample "suu_coord_request_latency_ms_count");
        ]
    in
    match raw with
    | Json.Obj fields -> Json.Obj (fields @ [ ("coord_latency", latency) ])
    | j -> j

(* Closed loop over the one connection: [window] lines outstanding, the
   next sent as soon as an answer returns, until [until_ms] (or [next]
   runs dry). Past [until_ms] the window stays full of uncounted lines
   until every counted answer is back: letting the loop run dry would
   leave the last answers waiting on TCP delayed acknowledgements (the
   server's small writes are held by Nagle's algorithm once no request
   carries the ACK back) instead of on the server. The next line is
   prepared right after each send, so generating it overlaps the
   server's work instead of adding to the measured wall time. Returns
   the checked counted answers in order and the time the last arrived. *)
let drive acct refs server ~window ~until_ms next =
  let inflight = Queue.create () in
  let answers = ref [] and owed = ref 0 in
  let k = ref 0 in
  let prepared = ref (next 0) in
  let send ~counted =
    match !prepared with
    | None -> ()
    | Some (id, req) ->
        acct.attempted <- acct.attempted + 1;
        if counted then incr owed;
        Queue.push (!k, id, req, Clock.now_ms (), counted) inflight;
        Server.send server (Gen.line ~id req);
        incr k;
        prepared := next !k
  in
  for _ = 1 to window do
    send ~counted:true
  done;
  let last = ref (Clock.now_ms ()) in
  while not (Queue.is_empty inflight) do
    let line = Server.recv server in
    let t = Clock.now_ms () in
    let k, id, req, t0, counted = Queue.pop inflight in
    let checked = check acct refs ~id req line in
    if counted then begin
      decr owed;
      last := t;
      Option.iter
        (fun mean ->
          answers := { k; id; req; lat_ms = t -. t0; line; mean } :: !answers)
        checked
    end;
    if t < until_ms then send ~counted:true
    else if !owed > 0 then send ~counted:false
  done;
  (List.rev !answers, !last)

let of_list l =
  let a = Array.of_list l in
  fun k ->
    if k < Array.length a then Some (Printf.sprintf "w%d" k, a.(k)) else None

let log_path o =
  Filename.concat o.out_dir (o.workload.Gen.name ^ ".server.log")

let spawn o ~trace_out =
  Server.spawn ~exe:o.exe ~log:(log_path o) ~tcp:o.workload.tcp
    (Gen.server_args o.workload ~trace_out)

(* Spawn, wait for the first pong, run the warm-up (the whole hot set
   for cache-hot) and take the starting counters. *)
let setup o acct refs gen ~trace_out =
  let t0 = Clock.now_ms () in
  let s = spawn o ~trace_out in
  ping acct s;
  ignore
    (drive acct refs s ~window:o.workload.window ~until_ms:infinity
       (of_list gen.Gen.warmup));
  let st = stats o.workload acct s in
  (s, st, (Clock.now_ms () -. t0) /. 1000.)

(* The first spawn of a run pays for a cold page cache and is discarded. *)
let discard_spawn o acct =
  let s = spawn o ~trace_out:None in
  ping acct s;
  ignore (Server.close s)

type phase = {
  answers : answer list;
  wall_s : float;
  before : Json.t;  (** raw stats after warm-up *)
  after : Json.t;  (** raw stats after the measured phase *)
  exit : Server.exit_info;
}

let probe probes = probes := Probe.run_ms () :: !probes

let measure o acct refs gen (s, before) ~ms ~probes =
  probe probes;
  let t0 = Clock.now_ms () in
  let answers, t1 =
    drive acct refs s ~window:o.workload.window ~until_ms:(t0 +. ms) (fun k ->
        Some (Printf.sprintf "m%d" k, gen.Gen.measured k))
  in
  probe probes;
  let after = stats o.workload acct s in
  let exit = Server.close s in
  if exit.code <> 0 then fail acct "server exited with %d" exit.code;
  { answers; wall_s = (t1 -. t0) /. 1000.; before; after; exit }

(* A seeded sample of served answers must be byte-identical (cache flag
   aside) to the in-process service answering the same lines — for the
   coordinator, that is its merged answer against a single process. *)
let sample_check o acct answers =
  let a = Array.of_list answers in
  let n = Array.length a in
  if n > 0 then begin
    let rng = Suu_prob.Rng.create (Hashtbl.hash (o.seed, "sample")) in
    let picks =
      List.sort_uniq compare
        (List.init 4 (fun _ -> Suu_prob.Rng.int rng n))
    in
    let chosen = List.map (fun i -> a.(i)) picks in
    let cfg = { Suu_service.Service.default_config with workers = 1 } in
    let lines = List.map (fun x -> Gen.line ~id:x.id x.req) chosen in
    let local, _ = Suu_service.Service.run_lines cfg lines in
    List.iter2
      (fun x l ->
        if drop_cached x.line <> drop_cached l then
          fail acct "%s: served answer differs from the in-process service"
            x.id)
      chosen local
  end

(* --- metrics --- *)

let num path j =
  let rec go j = function
    | [] -> Json.to_num j
    | f :: rest -> Option.bind (Json.member f j) (fun j -> go j rest)
  in
  Option.value (go j path) ~default:0.

let delta p path = num path p.after -. num path p.before
let latencies p = List.map (fun a -> a.lat_ms) p.answers

let tail_of xs =
  match Metric.tail xs with
  | Some t -> t
  | None ->
      (* Fewer than eleven samples (very short runs only): the maximum. *)
      {
        Metric.value = List.fold_left Float.max neg_infinity xs;
        percentile = 100.;
        samples = List.length xs;
      }

(* Geometric mean over the distinct measured requests of the served
   mean makespan over the LP-free lower bound. *)
let makespan_over_lb answers =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun a ->
      if not (Hashtbl.mem seen a.req.Gen.key) then
        let lb =
          Suu_algo.Bounds.best
            (Suu_algo.Bounds.compute ~with_lp:false a.req.instance)
        in
        Hashtbl.add seen a.req.key (a.mean /. lb))
    answers;
  Metric.geomean (Hashtbl.fold (fun _ r acc -> r :: acc) seen [])

let m name unit_ value = { Metric.name; value; unit_ }

type outcome = {
  metrics : Metric.t list;
  info : string list;  (** human-readable lines printed before the result *)
}

let generator o =
  Gen.generator o.workload ~wseed:o.seed ~hot_keys:o.hot_keys

let end_to_end o acct =
  let refs = Hashtbl.create 256 in
  let gen = generator o in
  discard_spawn o acct;
  (* Four timed set-ups: two before the measured phase, the second of
     them the measured server, and two after it. The host's speed swings
     for seconds at a time, so set-ups half a minute apart sample
     different phases of it. The servers shut down right after set-up
     give the set-up CPU baseline subtracted from the measured server's. *)
  let setup_only () =
    let s, _, t = setup o acct refs gen ~trace_out:None in
    (t, (Server.close s).cpu_s)
  in
  let t1, c1 = setup_only () in
  let s, st, t2 = setup o acct refs gen ~trace_out:None in
  let probes = ref [] in
  let p = measure o acct refs gen (s, st) ~ms:(o.seconds *. 1000.) ~probes in
  let t3, c3 = setup_only () in
  let t4, c4 = setup_only () in
  let setup_times = [ t1; t2; t3; t4 ] and baselines = [ c1; c3; c4 ] in
  sample_check o acct p.answers;
  let ok = List.length p.answers in
  let lat = latencies p in
  let tail = tail_of lat in
  let baseline = Metric.median baselines in
  let cpu_ms = (p.exit.cpu_s -. baseline) *. 1000. /. float_of_int ok in
  let metrics =
    [
      m "throughput_rps" "1/s" (float_of_int ok /. p.wall_s);
      m "latency_p50_ms" "ms" (Metric.median lat);
      m "latency_tail_ms" "ms" tail.value;
      m "server_cpu_ms_per_req" "ms" cpu_ms;
      m "server_peak_rss_mb" "MB" (float_of_int p.exit.maxrss_kb /. 1024.);
      m "setup_s" "s" (Metric.median setup_times);
      m "makespan_over_lb" "ratio" (makespan_over_lb p.answers);
    ]
  in
  let floats l = String.concat "," (List.map (Printf.sprintf "%.3f") l) in
  let driver_cpu = Unix.times () in
  let info =
    [
      Printf.sprintf
        "latency_tail_ms is p%.3f (10 samples beyond) of %d samples"
        tail.percentile tail.samples;
      Printf.sprintf "measured phase: %d ok in %.3f s; driver cpu %.3f s" ok
        p.wall_s
        (driver_cpu.tms_utime +. driver_cpu.tms_stime);
      Printf.sprintf "setups_s %s; setup cpu baseline %.3f s; server cpu %.3f s"
        (floats setup_times)
        baseline p.exit.cpu_s;
      Printf.sprintf "host.probe_ms %s" (floats (List.rev !probes));
    ]
    @
    if o.workload.coordinator then
      [
        Printf.sprintf "coordinator: shard_deaths %g, respawns %g, suspects %g"
          (num [ "shard_deaths" ] p.after)
          (num [ "respawns" ] p.after)
          (num [ "suspects" ] p.after);
      ]
    else []
  in
  { metrics; info }

(* From the served trace file: the [request] span durations (ms) of the
   measured-phase requests (ids [m<k>]) by id, and the durations of the
   [execute] spans that start within the measured phase. Set-up requests
   (the warm-up, or cache-hot's hot-set fills) are left out. *)
let served_spans path =
  let str f j = Option.bind (Json.member f j) Json.to_str in
  let measured id = String.length id > 1 && id.[0] = 'm' in
  let events =
    match
      Json.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | Ok (Json.List events) -> events
    | _ -> []
  in
  let reqs =
    List.filter_map
      (fun e ->
        match (str "name" e, Option.bind (Json.member "args" e) (str "id")) with
        | Some "request", Some id when measured id ->
            Some (id, num [ "ts" ] e, num [ "dur" ] e /. 1e3)
        | _ -> None)
      events
  in
  let start =
    List.fold_left (fun acc (_, ts, _) -> Float.min acc ts) infinity reqs
  in
  let execs =
    List.filter_map
      (fun e ->
        if str "name" e = Some "execute" && num [ "ts" ] e >= start then
          Some (num [ "dur" ] e /. 1e3)
        else None)
      events
  in
  (List.map (fun (id, _, dur) -> (id, dur)) reqs, execs)

(* Execute and wait times of the served requests. [suu serve] gives them
   from its trace: the [execute] span, and the client's latency less the
   [request] span. The coordinator writes no trace: the execute side is
   the mean latency of a sub-job at its shard, and the wait is the
   client's mean latency less the coordinator's own mean, admission to
   emission. The shards' merged latency histogram also counts the
   coordinator's heartbeat pings, so its sum is divided by the number of
   sub-jobs rather than by its own count; a ping adds microseconds to
   the sum against a sub-job's milliseconds. *)
let exec_and_wait o ~untraced:a ~traced:b ~trace_path =
  if o.workload.coordinator then
    let subjob = delta a [ "latency_hist"; "sum" ] /. delta a [ "subjobs" ] in
    let coord =
      delta a [ "coord_latency"; "sum" ] /. delta a [ "coord_latency"; "count" ]
    in
    let lat = latencies a in
    let client = List.fold_left ( +. ) 0. lat /. float_of_int (List.length lat) in
    (subjob, client -. coord)
  else
    let reqs, execs = served_spans trace_path in
    let span = Hashtbl.create 64 in
    List.iter (fun (id, d) -> Hashtbl.replace span id d) reqs;
    let wait x = Option.map (fun d -> x.lat_ms -. d) (Hashtbl.find_opt span x.id) in
    (Metric.median execs, Metric.median (List.filter_map wait b.answers))

let per_layer o acct =
  let w = o.workload in
  let refs = Hashtbl.create 256 in
  let gen = generator o in
  discard_spawn o acct;
  let probes = ref [] in
  let ms = o.seconds *. 1000. in
  let out_file kind =
    Filename.concat o.out_dir
      (Printf.sprintf "%s-%s-%d.trace.json" kind w.name o.seed)
  in
  (* Untraced served run: the counters, and the base for the overhead. *)
  let served ~trace_out =
    let s, st, _ = setup o acct refs gen ~trace_out in
    measure o acct refs gen (s, st) ~ms:(0.4 *. ms) ~probes
  in
  let a = served ~trace_out:None in
  (* Traced served run: [suu serve --trace-out]. The coordinator has no
     trace output, so on sharded-split this second run is untraced and
     the overhead reads as the run-to-run difference. *)
  let trace_path = out_file "served" in
  let trace_out = if w.coordinator then None else Some trace_path in
  let b = served ~trace_out in
  sample_check o acct a.answers;
  (* In-process replay of the untraced run's lines. *)
  let fill =
    match w.mix with
    | Gen.Hot _ ->
        List.mapi (fun i r -> Gen.line ~id:(Printf.sprintf "w%d" i) r) gen.warmup
    | Gen.Distinct _ -> []
  in
  let lines = List.map (fun x -> (x.k, Gen.line ~id:x.id x.req)) a.answers in
  let r =
    Replay.run ~sharded:w.coordinator ~fill ~lines ~budget_ms:(0.2 *. ms)
  in
  let replay_path = out_file "replay" in
  Replay.write_trace replay_path r;
  let served = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace served x.k x.line) a.answers;
  let agrees (k, (x : Replay.outcome)) =
    match (x.answer, Hashtbl.find_opt served k) with
    | Some l, Some s -> drop_cached l = drop_cached s
    | _ -> false
  in
  let replayed = float_of_int (List.length r.outcomes) in
  let per_replayed f =
    float_of_int (List.fold_left (fun acc (_, x) -> acc + f x) 0 r.outcomes)
    /. replayed
  in
  let per_req path = delta a path /. float_of_int (List.length a.answers) in
  let hits, misses =
    let cache = if w.coordinator then [ "shard" ] else [] in
    (delta a (cache @ [ "cache_hits" ]), delta a (cache @ [ "cache_misses" ]))
  in
  let exec_ms, wait_ms = exec_and_wait o ~untraced:a ~traced:b ~trace_path in
  let p50 p = Metric.median (latencies p) in
  let layer name = Replay.per_req_ms r name in
  let engine name = per_req [ "engine"; name ] in
  let metrics =
    [
      m "service.json_decode_ms" "ms" (layer "json_decode");
      m "service.request_decode_ms" "ms" (layer "request_decode");
      m "service.encode_ms" "ms" (layer "encode");
      m "service.cache_key_ms" "ms" (layer "cache_key");
      m "service.cache_lookup_us" "us" (1000. *. layer "cache_lookup");
      m "service.cache_hit_ratio" "ratio"
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      m "service.queue_hwm" "count" (num [ "queue_hwm" ] a.after);
      m "service.exec_ms" "ms" exec_ms;
      m "service.wait_ms" "ms" wait_ms;
      m "harness.io_parse_ms" "ms" (layer "io_parse");
      m "harness.io_digest_ms" "ms" (layer "io_digest");
      m "algo.build_ms" "ms" (layer "build");
      m "sim.estimate_ms" "ms" (layer "estimate");
      m "sim.trials_per_req" "count" (engine "engine_trials_total");
      m "sim.steps_per_req" "count" (engine "engine_steps_simulated_total");
      m "sim.vector_words_per_req" "count" (engine "engine_vector_words_total");
      m "sim.leapfrog_trials_per_req" "count"
        (engine "engine_leapfrog_trials_total");
      m "shard.route_us" "us" (1000. *. layer "route");
      m "shard.sub_encode_ms" "ms" (layer "sub_encode");
      m "shard.decode_ms" "ms" (layer "shard_decode");
      m "shard.merge_ms" "ms" (layer "merge");
      m "shard.subjobs_per_req" "count" (per_req [ "subjobs" ]);
      m "shard.subjob_bytes_per_req" "bytes"
        (per_replayed (fun x -> x.subjob_bytes));
      m "host.probe_ms" "ms" (Metric.median !probes);
      m "trace.overhead_pct" "%" (100. *. ((p50 b /. p50 a) -. 1.));
    ]
  in
  let info =
    [
      Printf.sprintf "untraced run: %d ok in %.3f s; traced run: %d ok in %.3f s"
        (List.length a.answers) a.wall_s (List.length b.answers) b.wall_s;
      Printf.sprintf
        "replay: %d requests, %d answers byte-identical to the served ones; \
         trace %s"
        (List.length r.outcomes)
        (List.length (List.filter agrees r.outcomes))
        replay_path;
    ]
  in
  { metrics; info }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run o =
  mkdir_p o.out_dir;
  let acct = { attempted = 0; failed = 0; notes = [] } in
  let out = if o.trace then per_layer o acct else end_to_end o acct in
  (out, acct)
