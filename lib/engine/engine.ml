(* Multicore campaign execution engine.

   A campaign of n experiments is split into fixed-size shards; shards are
   the unit of parallel dispatch and of durable storage (Store).  One
   executor (Shards.run) serves every campaign path, fleet workers
   included, and is the only code that executes shards: it answers
   shards from the store, hands the rest to a pool whose workers claim
   them from one shared cursor (Pool), and appends each result as it
   finishes.  Results
   are bit-identical at any worker count because experiment i always
   runs on the private generator [Prng.split_at base i] and shard merging
   is exact (Campaign.merge).

   Shard boundaries depend only on (n, shard_size) — never on [jobs] — so
   a store populated by one run is hit by any later run, whatever its
   parallelism, and a killed run resumes by re-executing only the shards
   that never made it to the store.

   Within a shard, each worker domain runs its experiments one at a time
   on a memory it takes from the workload for each run
   (Core.Workload.with_mem), restoring each golden prefix from the
   workload's checkpoint set (Core.Experiment.run_raw). *)

module Pool = Pool
module Progress = Progress
module Shards = Shards
module Incremental = Incremental
module Adaptive = Adaptive

let shards_of = Shards.tile

type run_stats = Obs.Snapshot.t = {
  mem_hits : int;
  dispatched : int;
  shards_from_store : int;
  shards_executed : int;
  experiments_from_store : int;
  experiments_executed : int;
}

let run_campaign_stats = Shards.campaign

let run_campaign ?jobs ?shard_size ?store ?progress ?keep_experiments
    workload spec ~n ~seed =
  fst
    (run_campaign_stats ?jobs ?shard_size ?store ?progress ?keep_experiments
       workload spec ~n ~seed)

let dispatch ?(jobs = 1) ?shard_size ?store ?progress () :
    Core.Runner.dispatch =
 fun ~keep_experiments workload spec ~n ~seed ->
  run_campaign_stats ~jobs ?shard_size ?store ?progress ~keep_experiments
    workload spec ~n ~seed

let runner ?n ?seed ?(jobs = 1) ?shard_size ?store ?progress () =
  Core.Runner.create ?n ?seed
    ~dispatch:(dispatch ~jobs ?shard_size ?store ?progress ())
    ()
