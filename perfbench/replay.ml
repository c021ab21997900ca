(* The traced in-process replay: the served request lines again, through
   the same public functions the server and the coordinator call, with a
   span around each layer's call. Spans stay in memory and are written
   once, as Chrome trace-event JSON, when the replay ends. *)

module Json = Suu_service.Json
module Request = Suu_service.Request
module Cache = Suu_service.Cache
module Engine = Suu_sim.Engine
module Io = Suu_harness.Io
module Clock = Suu_obs.Clock

type span = {
  sid : int;
  name : string;
  parent : int;  (** [-1] for a request's root span *)
  req : int;  (** index of the replayed request *)
  t0_ns : float;
  t1_ns : float;
}

type tracer = { mutable spans : span list; mutable next : int }

let tracer () = { spans = []; next = 0 }

let span tr ~parent ~req name f =
  let sid = tr.next in
  tr.next <- sid + 1;
  let t0_ns = Clock.now_ns () in
  let r = f sid in
  tr.spans <-
    { sid; name; parent; req; t0_ns; t1_ns = Clock.now_ns () } :: tr.spans;
  r

(* The coordinator's defaults: requests of at least [split_threshold]
   trials fan out over [shards] in [Dispatch.auto_chunk] ranges. *)
let shards = 2
let split_threshold = Suu_shard.Coordinator.default_config.split_threshold
let ring = Suu_shard.Ring.create (List.init shards Fun.id)

(* The fields the service answers for an unsplit estimate, and the ones
   a shard answers for a trial range — rebuilt here so the replay can
   time the coordinator's decode and merge without running shards. *)
let whole_fields (policy : Suu_core.Policy.t) (e : Engine.estimate) =
  let p95 =
    if Array.length e.samples = 0 then 0.
    else Suu_prob.Stats.quantile e.samples 0.95
  in
  [
    ("algo", Json.Str policy.name);
    ("trials", Json.int e.trials);
    ("mean", Json.Num e.stats.mean);
    ("ci95", Json.Num e.stats.ci95);
    ("p95", Json.Num p95);
    ("incomplete", Json.int e.incomplete);
  ]

let part_line ~id (policy : Suu_core.Policy.t) ((lo, hi), (e : Engine.estimate))
    =
  let samples = Array.to_list (Array.map (fun s -> Json.Num s) e.samples) in
  Request.ok ~id
    [
      ("algo", Json.Str policy.name);
      ("partial", Json.Bool true);
      ("lo", Json.int lo);
      ("hi", Json.int hi);
      ("trials", Json.int e.trials);
      ("incomplete", Json.int e.incomplete);
      ("samples", Json.List samples);
    ]

type outcome = {
  answer : string option;  (** [None] when the line did not decode *)
  subjob_bytes : int;  (** sub-job lines plus their partial answers *)
}

(* Replay one request line. With [sharded], a request of at least
   [split_threshold] trials takes the coordinator's path: route, trial
   ranges estimated as the shards do, sub-job encode, part decode and
   merge. Otherwise it takes the single service's path, one seeded run,
   and the shard layer is not reached. *)
let one tr ~sharded ~cache ~req:k line =
  span tr ~parent:(-1) ~req:k "request" @@ fun root ->
  let leaf name f = span tr ~parent:root ~req:k name (fun _ -> f ()) in
  let text =
    match leaf "json_decode" (fun () -> Json.of_string line) with
    | Ok j -> Option.bind (Json.member "instance" j) Json.to_str
    | Error _ -> None
  in
  let decoded =
    leaf "request_decode" (fun () ->
        Request.of_line ~default_trials:200 ~default_seed:1 line)
  in
  match (decoded, text) with
  | Ok ({ Request.op = Request.Solve s; id; _ } as req), Some text -> (
      let instance = leaf "io_parse" (fun () -> Io.of_string text) in
      ignore (leaf "io_digest" (fun () -> Io.digest instance));
      let key =
        Option.get (leaf "cache_key" (fun () -> Request.cache_key req))
      in
      if sharded then
        ignore
          (leaf "route" (fun () ->
               Suu_shard.Ring.route ring ~live:(fun _ -> true) key));
      let encode fields = leaf "encode" (fun () -> Request.ok ~id fields) in
      match leaf "cache_lookup" (fun () -> Cache.find cache key) with
      | Some fields ->
          {
            answer = Some (encode (("cached", Json.Bool true) :: fields));
            subjob_bytes = 0;
          }
      | None ->
          let ranges =
            if sharded && s.trials >= split_threshold then
              Suu_shard.Dispatch.plan ~trials:s.trials
                ~chunk:(Suu_shard.Dispatch.auto_chunk ~trials:s.trials ~shards)
            else []
          in
          let policy, estimate =
            span tr ~parent:root ~req:k "execute" @@ fun exec ->
            let leaf name f = span tr ~parent:exec ~req:k name (fun _ -> f ()) in
            let policy =
              leaf "build" (fun () ->
                  Suu_algo.Solver.solve
                    ~kind:(Request.canonical_algo s.algo)
                    s.instance)
            in
            let run (lo, hi) =
              ( (lo, hi),
                Engine.estimate_makespan_range ~seed:s.seed ~lo ~hi s.instance
                  policy )
            in
            ( policy,
              leaf "estimate" (fun () ->
                  if ranges = [] then
                    `Whole
                      (Engine.estimate_makespan_seeded ~trials:s.trials
                         ~seed:s.seed s.instance policy)
                  else `Parts (List.map run ranges)) )
          in
          let fields, subjob_bytes =
            match estimate with
            | `Whole e -> (whole_fields policy e, 0)
            | `Parts parts ->
                let subs =
                  leaf "sub_encode" (fun () ->
                      List.map (fun (lo, hi) -> Request.sub_line req ~lo ~hi) ranges)
                in
                let lines = List.map (part_line ~id policy) parts in
                let decoded =
                  leaf "shard_decode" (fun () ->
                      List.map Suu_shard.Merge.classify lines)
                in
                let parts =
                  List.filter_map
                    (function Suu_shard.Merge.Part p -> Some p | _ -> None)
                    decoded
                in
                let merged =
                  leaf "merge" (fun () ->
                      Suu_shard.Merge.merged_fields
                        ~max_steps:(Engine.default_horizon s.instance)
                        parts)
                in
                let bytes l =
                  List.fold_left (fun acc s -> acc + String.length s + 1) 0 l
                in
                (merged, bytes subs + bytes lines)
          in
          Cache.add cache key fields;
          {
            answer = Some (encode (("cached", Json.Bool false) :: fields));
            subjob_bytes;
          })
  | _ -> { answer = None; subjob_bytes = 0 }

type result = {
  spans : span list;  (** measured lines only *)
  outcomes : (int * outcome) list;  (** by replayed request index *)
}

(* Replay [fill] untraced (it puts the cache in the state the served run
   measured from), then the measured [lines] until [budget_ms] runs out
   — always at least one. *)
let run ~sharded ~fill ~lines ~budget_ms =
  let cache =
    Cache.create ~capacity:Suu_service.Service.default_config.cache_capacity
  in
  let scratch = tracer () in
  List.iter (fun l -> ignore (one scratch ~sharded ~cache ~req:(-1) l)) fill;
  let tr = tracer () in
  let t0 = Clock.now_ms () in
  let rec go acc = function
    | (k, line) :: rest when acc = [] || Clock.now_ms () -. t0 < budget_ms ->
        go ((k, one tr ~sharded ~cache ~req:k line) :: acc) rest
    | _ -> List.rev acc
  in
  let outcomes = go [] lines in
  { spans = tr.spans; outcomes }

(* Milliseconds spent in the spans called [name], per replayed request:
   the share of a request's time the layer accounts for (0 where no
   request reaches it). *)
let per_req_ms r name =
  let total =
    List.fold_left
      (fun acc s ->
        if s.name = name then acc +. ((s.t1_ns -. s.t0_ns) /. 1e6) else acc)
      0. r.spans
  in
  total /. float_of_int (max 1 (List.length r.outcomes))

let write_trace path r =
  let module E = Suu_obs.Trace_event in
  let event s =
    E.complete ~cat:"perfbench"
      ~args:
        [
          ("span", E.Int s.sid); ("parent", E.Int s.parent); ("req", E.Int s.req);
        ]
      ~pid:0 ~tid:0 ~ts_us:(s.t0_ns /. 1e3)
      ~dur_us:((s.t1_ns -. s.t0_ns) /. 1e3)
      s.name
  in
  let spans = List.sort (fun a b -> Float.compare a.t0_ns b.t0_ns) r.spans in
  Out_channel.with_open_text path (fun oc ->
      E.write oc
        (E.process_name ~pid:0 "perfbench replay" :: List.map event spans))
