(** Wire protocol of the campaign fleet.

    Coordinator and workers exchange newline-delimited JSON messages over
    a Unix or TCP stream socket.  Every request is answered by exactly one
    reply, so a connection is a sequence of strictly alternating
    request/reply lines and a reader never has to match replies to
    requests.

    The conversation: a worker sends [Hello] and receives [Welcome] (the
    campaign grid and the lease TTL), then loops sending [Lease] —
    answered by [Grant] (a shard lease with a deadline), [Wait] (all
    shards are leased out; back off and retry) or [Done] (the grid is
    complete).  While executing a shard the worker sends [Heartbeat] to
    extend its lease; when the shard finishes it sends [Complete]
    carrying the shard result, answered by [Ack].  [Drain] may be sent by
    anyone (workers, [onebit engine status]) and is answered by [State],
    a snapshot of leases, workers and reassignment counts.

    Because a shard's content depends only on (program, spec, seed, lo,
    hi) — never on who ran it — a [Complete] for an already-completed
    task is acknowledged as a duplicate and dropped: completions are
    exact no-ops to replay, which is what makes lease reassignment after
    a worker crash safe. *)

type cell = {
  c_program : string;  (** registry program name *)
  c_digest : string;
      (** md5 hex of the printed IR; workers refuse to run a cell whose
          locally-loaded digest differs, so a heterogeneous fleet cannot
          silently mix program versions *)
  c_spec : Core.Spec.t;
  c_n : int;
  c_seed : int64;
}
(** One campaign of the grid the coordinator owns. *)

type task = {
  t_id : int;  (** stable index into the coordinator's task table *)
  t_cell : int;  (** index into the [Welcome] cell array *)
  t_lo : int;
  t_hi : int;
}
(** One shard lease: experiments [t_lo..t_hi-1] of cell [t_cell].  The
    tiling is the engine's own ([Engine.shards_of]), so fleet shards are
    interchangeable with single-process store shards. *)

type lease_info = {
  li_task : int;
  li_worker : string;
  li_remaining : float;  (** seconds until the lease expires (<= ttl) *)
}

type worker_info = {
  wi_id : string;
  wi_completed : int;  (** shards completed by this worker *)
  wi_inflight : int;  (** live leases held *)
  wi_heartbeat_age : float;  (** seconds since the worker's last message *)
  wi_connected : bool;
}

type state = {
  st_cells : int;
  st_tasks : int;
  st_completed : int;
  st_reassigned : int;  (** expired or orphaned leases handed to another worker *)
  st_finished : bool;
  st_workers : worker_info list;  (** sorted by worker id *)
  st_leases : lease_info list;  (** live leases, sorted by task id *)
  st_adaptive : bool;
      (** coordinator is leasing adaptive rounds ({!Coord.create} with
          [ci_target]); [st_tasks] then grows as rounds are granted *)
  st_rounds : int;  (** adaptive round barriers crossed (0 when fixed-N) *)
  st_open : int;
      (** adaptive cells still below the CI target (0 when fixed-N).
          All three decode leniently — a state from a pre-adaptive peer
          reads as a fixed-N grid. *)
}

type msg =
  | Hello of { worker : string; pid : int }
  | Welcome of { proto : int; ttl : float; cells : cell array }
  | Lease of { worker : string }
  | Grant of { task : task; ttl : float }
  | Wait of { backoff : float }
  | Done
  | Heartbeat of { worker : string; task : int }
  | Complete of { worker : string; task : int; shard : Core.Campaign.shard }
  | Ack of { dup : bool }
  | Drain
  | State of state
  | Error of string

val version : int
(** Protocol version carried in [Welcome]. *)

val to_line : msg -> string
(** One line, no newline, canonical {!Store.Jsonx} rendering. *)

val of_line : string -> (msg, string) result
(** Decodes a [Complete]'s shard with {!Store.shard_of_json}, so a
    shard whose counts do not add up is an [Error], like any other
    malformed line. *)

val write : out_channel -> msg -> unit
(** [to_line] plus newline plus flush. *)

val read : in_channel -> (msg, [ `Eof | `Malformed of string ]) result
(** Read one message line; [`Eof] when the peer closed the stream. *)

val equal : msg -> msg -> bool
(** Structural equality (shards compared field-wise, kept experiments
    ignored — the wire never carries them).  Backs the codec round-trip
    tests. *)
