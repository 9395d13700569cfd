(** Fleet worker: connects to a coordinator, leases shards, computes
    each one with [Engine.Shards.run] — the executor every in-process
    campaign uses — and reports completions.

    One socket carries everything; a background thread heartbeats the
    in-flight lease (every ttl/3) while the main thread computes, so a
    shard that outlives its TTL is not reassigned under a live worker.
    Given [?store], the executor answers shards already present locally
    without recomputation and appends fresh ones durably; from its first
    append the store handle holds a writer lease until it is closed
    ({!Store.live_leases}), which makes [onebit engine gc] refuse to
    compact under it.  The executor counts every grant in the
    [onebit_engine_shards_*] and [onebit_engine_experiments_*] counters
    ({!Obs.Snapshot}). *)

val run :
  ?id:string ->
  ?store:Store.t ->
  connect:Unix.sockaddr ->
  load:(string -> Core.Workload.t) ->
  unit -> int
(** Serve until the coordinator answers a lease request with [done];
    returns the number of shards this worker completed (first-completion
    acks only — duplicates of reassigned shards don't count).  [id]
    defaults to ["worker-<pid>"]; [load] maps a cell's program name to
    its workload and is called at most once per program.  The workload
    is checked against the cell's digest on every grant, before the
    store is consulted.

    @raise Failure on protocol errors, a coordinator/worker program
    digest mismatch, or a lost connection. *)
