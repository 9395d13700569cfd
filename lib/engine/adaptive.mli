(** CI-targeted sequential sampling over a multi-cell campaign grid.

    A fixed-N study spends the same budget on every cell even though
    most cells' outcome proportions are dead-certain long before N is
    exhausted.  The adaptive sampler runs the grid in rounds: each round
    grants every still-open cell a deterministic batch of shards, waits
    for all of them (the round barrier), recomputes each cell's Wilson
    interval on its SDC proportion, closes cells whose half-width has
    reached the target, and sizes the next round's grants from
    {!Stats.Proportion.needed_trials}, widest intervals first.

    Every experiment the sampler runs is the one a fixed-N campaign
    would run (shard boundaries come from the cap tiling, experiment [i]
    always runs on [Prng.split_at base i]), so a cell closed at
    [closed_at] merges into a result byte-identical to
    [Engine.run_campaign ~n:closed_at], and because allocation reads
    only merged prefix results at round barriers, any execution — one
    process, any pool size, any fleet shape, any kill history — grants
    the identical experiment set.  Store keys use the cap, so adaptive
    records are a prefix-compatible subset of a fixed-N(cap) run's. *)

module Control : sig
  type t
  (** The pure allocation state machine, shard-granular and generic over
      what a cell is.  {!run_grid} and the fleet coordinator both drive
      one of these, which is what makes in-process and fleet adaptive
      runs produce the identical experiment set. *)

  val create :
    ?initial:int ->
    target:float ->
    shard_size:int ->
    int array -> t
  (** [create ~target ~shard_size caps] plans one cell per cap (its
      fixed-N ceiling).  [target] is the Wilson 95% CI half-width at
      which a cell closes, in (0, 1).  [initial] is the first grant per
      cell in experiments (default [2 * shard_size]). *)

  val step : t -> obs:(int -> int * int) -> (int * (int * int) list) list
  (** One round barrier.  [obs i] must return the merged
      [(trials, sdc successes)] of cell [i]'s granted prefix, every
      granted shard having completed.  Closes cells whose half-width
      reached the target (or whose cap is exhausted) and returns the
      next round's grants as [(cell index, shard ranges)]; [[]] means
      every cell is closed.  Deterministic in the observations alone —
      the determinism-at-round-barriers property. *)

  val n_cells : t -> int
  val closed : t -> int -> bool
  val met : t -> int -> bool
  (** Closed because the target was reached (as opposed to cap
      exhaustion). *)

  val closed_at : t -> int -> int
  (** Experiments covered by the granted prefix — the cell's effective
      N, a shard boundary of the cap tiling. *)

  val half_width : t -> int -> float
  (** SDC half-width at the last barrier; 1.0 before any data. *)

  val rounds : t -> int
  val finished : t -> bool
end

type cell = {
  c_workload : Core.Workload.t;
  c_spec : Core.Spec.t;
  c_cap : int;  (** fixed-N ceiling: adaptive never exceeds it *)
  c_seed : int64;
}

type cell_result = {
  r_cell : cell;
  r_result : Core.Campaign.result;
      (** [n = closed_at]; byte-identical to the fixed-N campaign of
          that N *)
  r_closed_at : int;
  r_met : bool;  (** reached the CI target (vs. ran into the cap) *)
}

type grid_stats = {
  g_rounds : int;
  g_executed : int;  (** experiments actually run by this invocation *)
  g_from_store : int;  (** experiments satisfied by the store *)
  g_saved : int;  (** sum over cells of [cap - closed_at] *)
}

val run_grid :
  ?jobs:int ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?log:(string -> unit) ->
  target:float ->
  cell list ->
  cell_result list * grid_stats
(** Run the grid adaptively in-process.  Results are returned in cell
    order.  Each round's grants go to the same shard executor as a
    fixed-N campaign; [jobs] and [shard_size] resolve as they do there
    ({!Core.Config.resolve_shard_size}).  With a [store], shards already present are not re-executed
    and new shards are appended durably as they finish (keys use each
    cell's cap), so a killed adaptive run resumes: the re-run replays
    the same deterministic round schedule and hits the store for
    everything that completed.  [log], when given, receives one progress
    line per round.  The controller runs at its defaults ({!Control.create}
    without [initial]), as the fleet coordinator's does, so both produce
    the same schedule.  Raises [Invalid_argument]
    on an empty grid, a non-positive cap, or a [target] outside (0, 1). *)
