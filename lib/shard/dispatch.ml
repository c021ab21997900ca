let auto_chunk ~trials ~shards =
  if trials < 1 then invalid_arg "Dispatch.auto_chunk: trials < 1";
  if shards < 1 then invalid_arg "Dispatch.auto_chunk: shards < 1";
  (* Four chunks per shard: enough slack that a slow shard sheds work to
     the others through the job queue, without per-chunk overhead
     dominating. Ceiling division so the chunk count never exceeds
     4 * shards. A chunk of at least one word is rounded up to whole
     words: a seeded estimate simulates every 63-trial word a range
     touches in full, so aligned ranges simulate no word twice. *)
  let raw = max 1 ((trials + (4 * shards) - 1) / (4 * shards)) in
  let word = Suu_sim.Lanes.lanes_per_word in
  if raw < word then raw else (raw + word - 1) / word * word

let plan ~trials ~chunk =
  if trials < 1 then invalid_arg "Dispatch.plan: trials < 1";
  if chunk < 1 then invalid_arg "Dispatch.plan: chunk < 1";
  let rec go lo acc =
    if lo >= trials then List.rev acc
    else
      let hi = min trials (lo + chunk) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []

(* Same shape as the service's transient-retry backoff: capped
   exponential with deterministic jitter from the fault spec's seed. *)
let backoff_cap_ms = 50.

let backoff_s ~base_ms ~fault ~key ~attempt =
  let raw = base_ms *. (2. ** float_of_int attempt) in
  let jitter =
    Suu_service.Fault.jitter fault
      ~key:(Suu_service.Fault.attempt_key ~seq:key ~attempt)
  in
  Float.min raw backoff_cap_ms *. (0.5 +. (0.5 *. jitter)) /. 1000.
