(* The three workloads and the request lines they send. Every line is
   generated from the workload seed (instances through
   Suu_workloads.Workload, serialised with Io.to_string), so the server
   only ever sees generated input and the same seed replays the same
   lines. *)

module W = Suu_workloads.Workload
module Json = Suu_service.Json
module Rng = Suu_prob.Rng

(* One cost class: every request in it is an adaptive solve with the
   same instance size, family set and trial count; only the instance
   draw and the request seed vary. *)
type cls = { n : int; m : int; trials : int }

type mix =
  | Distinct of { cls : cls; warmup : int }
      (** every request a fresh cache key; [warmup] requests of the class
          are sent at set-up, about half a second of work, so a set-up is
          timed over a fixed load rather than over process start alone *)
  | Hot of { hot : cls; keys : int; fresh : cls; fresh_per_mille : int }
      (** draws from [keys] hot keys filled at setup, plus fresh keys *)

type t = {
  name : string;
  coordinator : bool;  (** [suu coordinator] instead of [suu serve] *)
  tcp : bool;
  window : int;  (** lines outstanding on the one connection *)
  mix : mix;
}

let families = [| "grid-batch"; "grid-workflow"; "grid-divide"; "project" |]

(* No workload serves oblivious solves: the dense-simplex policy build
   they spend their time in slows 1.3-1.4 times as much as the estimate
   when the shared host slows, and ten runs of such a workload spread by
   more than a quarter of their median. *)
let all =
  [
    {
      name = "estimate-heavy";
      coordinator = false;
      tcp = false;
      window = 1;
      mix = Distinct { cls = { n = 64; m = 16; trials = 1000 }; warmup = 10 };
    };
    {
      name = "cache-hot";
      coordinator = false;
      tcp = true;
      (* Two lines, not more: a host stall delays every line in flight, and
         the tail (ten samples beyond) should span several stalls. *)
      window = 2;
      mix =
        Hot
          {
            hot = { n = 64; m = 16; trials = 200 };
            keys = 96;
            fresh = { n = 16; m = 4; trials = 50 };
            fresh_per_mille = 50;
          };
    };
    {
      name = "sharded-split";
      coordinator = true;
      tcp = false;
      window = 1;
      mix = Distinct { cls = { n = 64; m = 16; trials = 2000 }; warmup = 6 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The server command line. [--workers 1] is explicit so the
   configuration never follows the host's core count. *)
let server_args w ~trace_out =
  let trace =
    match trace_out with None -> [] | Some f -> [ "--trace-out"; f ]
  in
  if w.coordinator then
    [ "coordinator"; "--shards"; "2"; "--workers"; "1"; "--quiet" ]
  else
    [ "serve"; "--workers"; "1"; "--quiet" ]
    @ (if w.tcp then [ "--listen"; "127.0.0.1:0"; "--max-conns"; "1" ] else [])
    @ trace

let instance_of ~family rng ~n ~m =
  match family with
  | "grid-batch" -> (W.grid_batch rng ~n ~m).W.instance
  | "grid-workflow" -> (W.grid_workflow rng ~n ~m ~stages:4).W.instance
  | "grid-divide" -> (W.grid_divide rng ~n ~m).W.instance
  | "project" -> (W.project rng ~n ~m).W.instance
  | f -> invalid_arg ("unknown family " ^ f)

(* A request's identity: which stream of the seed it was drawn from and
   its index there. Streams keep warm-up, hot and fresh keys apart from
   the measured ones. *)
type stream = Measured | Warmup | Hot_set | Fresh

let stream_tag = function
  | Measured -> 0
  | Warmup -> 1
  | Hot_set -> 2
  | Fresh -> 3

type req = {
  key : stream * int;  (** equal keys are equal requests *)
  cls : cls;
  instance : Suu_core.Instance.t;
  body : string;  (** the line without its leading [{"id":..,] *)
}

let make ~wseed cls stream i =
  let rng = Rng.create (Hashtbl.hash (wseed, stream_tag stream, i)) in
  let family = families.(i mod Array.length families) in
  let instance = instance_of ~family rng ~n:cls.n ~m:cls.m in
  let seed = 1 + Rng.int rng 1_000_000_000 in
  let obj =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "solve");
           ("algo", Json.Str "adaptive");
           ("trials", Json.int cls.trials);
           ("seed", Json.int seed);
           ("instance", Json.Str (Suu_harness.Io.to_string instance));
         ])
  in
  let body = String.sub obj 1 (String.length obj - 1) in
  { key = (stream, i); cls; instance; body }

let line ~id r = Printf.sprintf "{\"id\":%S,%s" id r.body

(* The generator of one run: measured request [k], warm-up requests and
   the hot set, all pure functions of the workload seed. *)
type gen = {
  measured : int -> req;
  warmup : req list;  (** sent at every setup, before measuring *)
}

let generator w ~wseed ~hot_keys =
  match w.mix with
  | Distinct { cls; warmup } ->
      {
        measured = (fun k -> make ~wseed cls Measured k);
        warmup = List.init warmup (make ~wseed cls Warmup);
      }
  | Hot { hot; keys; fresh; fresh_per_mille } ->
      let keys = Option.value hot_keys ~default:keys in
      let hot_set = Array.init keys (make ~wseed hot Hot_set) in
      {
        measured =
          (fun k ->
            (* Its own stream, apart from the four above. *)
            let rng = Rng.create (Hashtbl.hash (wseed, 4, k)) in
            if Rng.int rng 1000 < fresh_per_mille then
              make ~wseed fresh Fresh k
            else hot_set.(Rng.int rng keys));
        warmup = Array.to_list hot_set;
      }
