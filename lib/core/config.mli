(** Unified runtime configuration — the single source of truth for every
    [ONEBIT_*] environment variable.

    Resolution precedence is CLI flag > environment > default:
    {!of_env} reads the environment, {!override} layers explicit (flag)
    values on top, and no other module in the repository may call
    [Sys.getenv] on an [ONEBIT_*] name.

    Variables covered:
    - [ONEBIT_N] — experiments per campaign (bench; default 100)
    - [ONEBIT_SEED] — base campaign seed (default 20170626)
    - [ONEBIT_PROGRAMS] — comma-separated program subset (bench); items
      are trimmed, empty items dropped, and an empty list means unset
    - [ONEBIT_CAP] — Table IV replay cap (default 400)
    - [ONEBIT_PRUNE_N] — prune-static validation injections (default 40)
    - [ONEBIT_JOBS] — worker domains; 0 or unparsable = one per core,
      unset = 1
    - [ONEBIT_SHARD] — experiments per shard (default 25)
    - [ONEBIT_STORE] — result-store directory (empty = none)
    - [ONEBIT_PROGRESS] — 1/true/yes/on = live stderr reporter
    - [ONEBIT_METRICS] — metrics dump path, written at exit
      ("-"/"stderr" = stderr); setting it enables collection
    - [ONEBIT_TRACE] — JSONL span-trace path, written at exit; setting
      it enables collection and tracing
    - [ONEBIT_BACKEND] — the backend {!Experiment.run_raw} dispatches
      on: "compiled" (the default, production) or "seed" (every run is
      {!Experiment.run_oracle}).  Read once at start-up and never
      changed; it is not part of {!t}.  It exists for [perfbench refs],
      which regenerates the benchmark's references on the oracle; tests
      and [onebit reproduce] call {!Experiment.run_oracle} directly
    - [ONEBIT_INCREMENTAL] — compose campaigns from cached per-function
      profiles ([Engine.Incremental]; "1"/"true"/"yes"/"on"; default
      off)
    - [ONEBIT_COORD] — fleet coordinator address ([unix:PATH] or
      [HOST:PORT]; empty = none), the default for [onebit work] and
      [onebit engine status --coord]
    - [ONEBIT_LEASE_TTL] — fleet lease TTL in seconds (default 30)
    - [ONEBIT_DOMAIN] — fault domain: "reg" (dynamic register
      operands, the paper's model and the default), "mem" (live arena
      bytes), or "code" (stored-program bits, the icache analog)
    - [ONEBIT_ADAPTIVE] — CI-targeted sequential sampling
      ([Engine.Adaptive]): allocate experiments round by round across
      the campaign grid and stop each cell once its SDC estimate is
      tight enough ("1"/"true"/"yes"/"on"; default off)
    - [ONEBIT_CI] — adaptive stopping target: the Wilson 95% CI
      half-width (a proportion, e.g. 0.02 = ±2 points) at which a
      cell's SDC estimate closes (default 0.02) *)

type backend = Seed | Compiled
(** What {!Experiment.run_raw} runs: {!Experiment.run_oracle} on the seed
    interpreter, or the compiled micro-op pipeline ({!Vm.Code.run}). *)

val backend_name : backend -> string
(** ["seed"] or ["compiled"]. *)

type t = {
  n : int;
  seed : int64;
  programs : string list option;
  cap : int;
  prune_n : int;
  jobs : int;  (** resolved: always >= 1 *)
  shard_size : int;
  store : string option;
  progress : bool;
  metrics : string option;
  trace : string option;
  incremental : bool;
      (** compose campaigns from cached per-function profiles
          ([Engine.Incremental]); resolved from ONEBIT_INCREMENTAL
          (["1"]/["true"]/["yes"]/["on"]) or [--incremental] *)
  coord : string option;
      (** fleet coordinator address ([ONEBIT_COORD]; empty = none) *)
  lease_ttl : float;  (** fleet lease TTL in seconds ([ONEBIT_LEASE_TTL]) *)
  domain : Domain.t;  (** fault domain ([ONEBIT_DOMAIN]; default [Reg]) *)
  adaptive : bool;
      (** CI-targeted sequential sampling ([ONEBIT_ADAPTIVE] or
          [--adaptive]; default off).  [n] becomes the per-cell cap. *)
  ci_target : float;
      (** adaptive stopping target: Wilson 95% CI half-width at which a
          cell's SDC estimate closes ([ONEBIT_CI]; default 0.02) *)
}

val default : t

val of_env : ?getenv:(string -> string option) -> unit -> t
(** Resolve from the environment ([getenv] defaults to
    [Sys.getenv_opt]; injectable for tests). *)

val override :
  ?n:int ->
  ?jobs:int ->
  ?shard_size:int ->
  ?store:string ->
  ?metrics:string ->
  ?trace:string ->
  ?incremental:bool ->
  ?coord:string ->
  ?lease_ttl:float ->
  ?domain:Domain.t ->
  ?adaptive:bool ->
  ?ci_target:float ->
  t -> t
(** Layer explicit values (CLI flags) over a resolved configuration.
    [jobs <= 0] means one worker per recommended domain; a
    non-positive [shard_size] or [lease_ttl] is ignored, as is a
    [ci_target] outside (0, 1).  The fields it does not take ([seed],
    [programs], [cap], [prune_n], [progress]) keep their environment
    resolution. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [j] if positive, else the recommended domain
    count. *)

val resolve_shard_size : int option -> int
(** [resolve_shard_size (Some s)] is [s] if positive; a non-positive or
    absent size means the [ONEBIT_SHARD] resolution of {!of_env}.  Every
    driver that tiles a campaign into shards resolves its [?shard_size]
    here, so their shard boundaries and store keys agree. *)

val install : t -> unit
(** Arm the observability sinks described by [metrics]/[trace]
    (enables collection and registers at-exit dump writers; a no-op if
    neither is set). *)

val active_backend : unit -> backend
(** The backend {!Experiment.run_raw} dispatches faulty runs on
    ({!Workload.make}'s golden run is always compiled): [ONEBIT_BACKEND],
    resolved once when the program starts.  Nothing sets it at run
    time. *)

(** {1 Derived views}

    Kept for the benchmark's configuration manifest; none is settable. *)

val checkpointing : unit -> bool
(** Whether experiments restore golden-prefix checkpoints: exactly when
    the active backend is [Compiled]. *)

val checkpoint_interval : unit -> int
(** The capture interval of the recorded checkpoint sets
    ({!Vm.Checkpoint.interval}). *)

val batching : unit -> bool
(** Always [false]: experiments run one at a time. *)
