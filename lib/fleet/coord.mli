(** Fleet coordinator: owns a campaign grid, leases its shards to
    workers, reassigns expired or orphaned leases, and merges completed
    shards into results that are bit-identical to [Core.Campaign.run].

    The state machine is pure with respect to time — every transition
    takes an explicit [now] — so the whole failure matrix (expiry,
    duplicate completion, worker death at any point) is unit-testable
    without sockets or clocks.  {!listen}/{!serve} wrap it in a
    newline-delimited-JSON socket server ({!Proto}) with one thread per
    connection; a connection dropping (worker SIGKILL) immediately
    orphans its leases, so reassignment does not wait for the TTL.

    Crash tolerance composes with the result store: given [?store],
    every slot is prefilled from the store when it is added (a fixed
    grid adds its whole tiling at creation as one round, an adaptive
    grid one round per barrier), so a restarted coordinator resumes
    where the last one died, and every completed shard is appended
    durably.  Duplicate completions — a reassigned shard finished by
    both the slow original worker and its replacement — are exact
    no-ops, because a shard's content depends only on
    (program, spec, seed, lo, hi).  A completion whose range does not
    match its task, or whose counts do not add up
    ({!Core.Campaign.consistent}), is answered with [Error] and leaves
    the task leasable, so no merge ever sees it. *)

type t

val create :
  ?ttl:float ->
  ?shard_size:int ->
  ?store:Store.t ->
  ?ci_target:float ->
  cells:Proto.cell list ->
  unit -> t
(** [ttl] (default 30s) is the lease deadline extended by heartbeats;
    a non-positive or absent [shard_size] means the configured size
    ({!Core.Config.resolve_shard_size}), and the tiling is
    [Engine.shards_of] — the same shards a single-process engine run
    would store.

    With [ci_target], the coordinator leases adaptive rounds instead of
    a fixed grid ({!Engine.Adaptive.Control}): each cell's [c_n] becomes
    its cap, and at every round barrier — all granted shards completed —
    the controller closes cells whose SDC Wilson half-width reached
    [ci_target] and appends the next round's grants.  Allocation reads
    only merged prefix results at barriers, so any fleet shape or kill
    history produces the identical experiment set, equal to the
    in-process {!Engine.Adaptive.run_grid} schedule: both run the
    controller at its defaults.  The wire protocol is unchanged (workers
    cannot tell the modes apart).

    @raise Invalid_argument on an empty grid or a non-positive [n]. *)

val ttl : t -> float
val total_tasks : t -> int

val handle : t -> now:float -> conn:int -> Proto.msg -> Proto.msg
(** Process one request and produce its reply.  [conn] identifies the
    transport connection (any integer unique per connection; tests may
    use worker indices). *)

val disconnect : t -> now:float -> conn:int -> unit
(** The connection dropped: mark its worker disconnected and make every
    lease it held immediately reassignable. *)

val finished : t -> bool

val state : t -> now:float -> Proto.state

val results : t -> (Proto.cell * Core.Campaign.result) list
(** Merged per-cell results, in grid order.  Adaptive cells merge at
    their stopping point ([result.n] is the closed-at N, a shard
    boundary of the cap tiling), byte-identical to a fixed-N campaign
    of that N.

    @raise Invalid_argument unless {!finished}. *)

val adaptive_summary : t -> (Proto.cell * int * bool) list option
(** In adaptive mode, [(cell, closed_at, met)] per cell — [met] is
    false when the cap ran out before the CI target; [None] when the
    coordinator leases a fixed grid. *)

(** {1 Socket server} *)

type server

val listen : t -> Unix.sockaddr -> server
(** Bind and listen (unlinking a stale Unix-domain socket path first). *)

val bound_addr : server -> Unix.sockaddr

val serve : server -> unit
(** Accept and serve connections until the grid is complete, then close
    the listening socket and wait for the connection handlers to drain.
    An HTTP [GET] on the same socket is answered with the process's
    Prometheus metrics dump ({!Obs.render}) — the fleet dashboard
    endpoint, aggregating the coordinator's per-worker lease/completion
    counters. *)
