(** onebit.obs — observability layer.

    {!Metrics} is a lock-free-per-domain registry of counters, gauges
    and fixed-bucket histograms; {!Trace} records nested begin/end
    spans exported as JSONL; {!Snapshot} is the unified runner/engine
    statistics value.  Recording never influences the instrumented
    computation — campaign results are bit-identical with collection on
    or off — and disabled probes cost one atomic load and a branch.

    Collection is off by default.  [Core.Config.install] (or
    {!install_sink} directly) switches it on and arranges for dumps at
    process exit; the [ONEBIT_METRICS] / [ONEBIT_TRACE] variables and
    the [--metrics] / [--trace] CLI flags are the user-facing spellings. *)

module Metrics = Metrics
module Trace = Trace
module Snapshot = Snapshot

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Gate for metrics collection (tracing has its own flag,
    {!Trace.set_enabled}). *)

val render : unit -> string
(** Prometheus-style text dump of the default registry. *)

val http_response : unit -> string
(** {!render} wrapped in a minimal [HTTP/1.1 200] response
    ([text/plain; version=0.0.4], [Connection: close]) — what a
    Prometheus scrape of an embedded metrics endpoint expects. *)

val install_sink : ?metrics:string -> ?trace:string -> unit -> unit
(** Enable collection (and tracing if [trace] is given) and register an
    at-exit writer for each given path.  May be called more than once;
    every installed sink is written at exit.  A call with neither path
    is a no-op. *)
