(** Live progress/metrics channel for engine runs.

    Worker domains report each finished shard; any thread can take a
    consistent {!snapshot} with throughput (experiments/sec), per-outcome
    counters, an ETA for the in-flight campaign and per-domain
    utilisation.  {!with_reporter} renders snapshots to stderr on a
    ticker thread, keeping stdout byte-identical to a silent run. *)

type t

val create : unit -> t
val begin_campaign : t -> label:string -> total:int -> unit

val record_shard :
  t -> ?worker:int -> ?busy:float -> from_store:bool ->
  Core.Campaign.shard -> unit
(** Thread-safe; called by workers as shards complete ([busy] is the
    wall-clock seconds the shard took on [worker]). *)

type snapshot = {
  elapsed : float;
  rate : float;  (** executed experiments per second (store hits excluded) *)
  eta : float;  (** seconds until the current campaign completes; 0 if idle *)
  campaign_label : string;
  campaign_done : int;
  campaign_total : int;
  campaigns_started : int;
  experiments : int;
  from_store : int;
  benign : int;
  detected : int;
  hang : int;
  no_output : int;
  sdc : int;
  per_worker : (int * float) array;  (** per-domain (shards run, busy s) *)
}

val snapshot : t -> snapshot
val render : snapshot -> string

val with_reporter : ?interval:float -> t -> (unit -> 'a) -> 'a
(** Run [f] with a stderr progress line refreshed every [interval]
    seconds (default 0.5), when the [ONEBIT_PROGRESS] resolution of
    {!Core.Config.of_env} enables it; otherwise just run [f].  Always
    prints a final snapshot line when enabled. *)
