(** Trial-range planning and retry pacing for the coordinator — the
    pure arithmetic, kept out of the stateful dispatch loop so it can
    be unit-tested exhaustively. *)

val plan : trials:int -> chunk:int -> (int * int) list
(** Contiguous half-open ranges [(lo, hi)] of width at most [chunk]
    partitioning [\[0, trials)], in increasing order. The partition —
    together with the engine's per-word seeding — is what makes the
    merged estimate bit-identical to the unsplit run.
    @raise Invalid_argument when [trials < 1] or [chunk < 1]. *)

val auto_chunk : trials:int -> shards:int -> int
(** Default chunk width: about four chunks per shard (at least 1), so
    the job queue can rebalance around a slow or dying shard. A width of
    at least {!Suu_sim.Lanes.lanes_per_word} is rounded up to a whole
    number of words, so no 63-trial word is simulated by two ranges.
    @raise Invalid_argument when [trials < 1] or [shards < 1]. *)

val backoff_s : base_ms:float -> fault:Suu_service.Fault.spec -> key:int -> attempt:int -> float
(** Capped exponential backoff (cap 50 ms) with deterministic jitter in
    [0.5, 1] drawn from the fault spec's seed — the same discipline as
    the service's transient retries, so chaos runs reproduce. *)
