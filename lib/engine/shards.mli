(** Shard tiling and the one shard executor behind every in-process
    driver: the fixed-N engine, each adaptive round and the incremental
    engine's mem/code fallback. *)

val tile : n:int -> shard_size:int -> (int * int) list
(** The canonical [(lo, hi)] shard tiling of [0, n); requires [n > 0].
    A prefix of the tiling up to any shard boundary [b] equals
    [tile ~n:b ~shard_size]. *)

type job = {
  workload : Core.Workload.t;
  spec : Core.Spec.t;
  n : int;
      (** the campaign size the store key carries: the fixed-N [n], or
          an adaptive cell's cap *)
  seed : int64;
  lo : int;
  hi : int;
}
(** One shard of one campaign: experiments [lo, hi). *)

val run :
  ?jobs:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  ?keep_experiments:bool ->
  job array ->
  Core.Campaign.shard array * Obs.Snapshot.t
(** Answer every job from the [store] when it holds the shard; run the
    rest with {!Core.Campaign.run_shard} on {!Pool.run} ([jobs] as in
    {!Core.Config.resolve_jobs}, default 1) and append each result to
    the store as it finishes, under a writer lease.  Finished shards are
    reported to [progress].  Returns the shards in job order
    and the store/execution accounting, which is also folded into the
    [onebit_engine_*_total] counters.  [keep_experiments] runs bypass
    the store: per-experiment records are not persisted. *)

val campaign :
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  ?keep_experiments:bool ->
  Core.Workload.t -> Core.Spec.t -> n:int -> seed:int64 ->
  Core.Campaign.result * Obs.Snapshot.t
(** The fixed-N path: {!tile} at [Core.Config.resolve_shard_size
    shard_size], {!run}, then {!Core.Campaign.merge}; traced as one
    ["campaign"] span.  [Engine.run_campaign_stats] is this function. *)

val span_if_tracing : string -> (unit -> 'a) -> 'a
(** [Obs.Trace.with_span] when tracing is enabled, else just the call. *)
