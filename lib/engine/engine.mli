(** Multicore campaign execution engine.

    Campaigns are split into fixed-size shards.  One executor
    ({!Shards.run}, the only code that executes shards) serves the
    fixed-N engine, every adaptive round, the incremental engine's
    mem/code fallback and every fleet worker: it answers shards from a
    durable {!Store}, runs the rest on a pool of worker domains that
    claim them from one shared cursor ({!Pool}) and appends each result
    as it finishes.
    Per-experiment seeds come from the splittable PRNG
    ([Prng.split_at base i]), so the merged result is bit-identical
    regardless of worker count or scheduling order.  Shard boundaries
    depend only on (n, shard size), never on the worker count, which is
    what lets a store populated by one run satisfy any later run and lets
    a killed run resume by executing only its missing shards.

    Runtime knobs (worker count, shard size, store path, …) resolve in
    {!Core.Config}. *)

module Pool = Pool
module Progress = Progress
module Shards = Shards
module Incremental = Incremental
module Adaptive = Adaptive

val shards_of : n:int -> shard_size:int -> (int * int) list
(** The canonical [(lo, hi)] tiling of [0, n). *)

type run_stats = Obs.Snapshot.t = {
  mem_hits : int;
  dispatched : int;
  shards_from_store : int;
  shards_executed : int;
  experiments_from_store : int;
  experiments_executed : int;
}
(** Per-call accounting, now the unified {!Obs.Snapshot.t} shared with
    {!Core.Runner}.  An engine call leaves [mem_hits] and [dispatched]
    zero — those belong to the memoising runner; use
    {!Obs.Snapshot.add} to accumulate across calls. *)

val run_campaign_stats :
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  ?keep_experiments:bool ->
  Core.Workload.t -> Core.Spec.t -> n:int -> seed:int64 ->
  Core.Campaign.result * run_stats
(** Run one campaign.  [jobs <= 0] means one worker per recommended
    domain; [jobs] defaults to 1.  A non-positive or absent [shard_size]
    means the configured [ONEBIT_SHARD] size
    ({!Core.Config.resolve_shard_size}).  With a [store],
    shards already present are not re-executed and newly computed shards
    are appended durably as they finish ([keep_experiments] campaigns
    bypass the store: per-experiment records are not persisted). *)

val run_campaign :
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  ?keep_experiments:bool ->
  Core.Workload.t -> Core.Spec.t -> n:int -> seed:int64 ->
  Core.Campaign.result

val dispatch :
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  unit -> Core.Runner.dispatch
(** A {!Core.Runner.dispatch} backed by this engine: each cache miss is
    a {!run_campaign_stats}, whose snapshot the runner accumulates in
    {!Core.Runner.snapshot}. *)

val runner :
  ?n:int ->
  ?seed:int64 ->
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  unit -> Core.Runner.t
(** A memoising runner whose cache misses run on this engine. *)
