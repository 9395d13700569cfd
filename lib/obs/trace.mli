(** Lightweight span tracing.

    A span brackets a unit of work with begin/end events; spans nest
    per domain.  Recording is gated on its own enabled flag (separate
    from metrics), so a {!with_span} while tracing is disabled records
    nothing and costs one atomic load.  Events are exported as JSONL, one
    object per line: [{"name":…,"ph":"B"|"E","ts":…,"dom":…}]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the end event is
    recorded even if [f] raises. *)

type event = { name : string; ph : char; ts : float; dom : int }

val events : unit -> event list
(** All recorded events, oldest first. *)

val clear : unit -> unit

val well_formed : event list -> bool
(** Per-domain stack discipline: every end matches its domain's most
    recent open begin, and no span is left open. *)

val json_of_event : event -> string
val export_jsonl : out_channel -> unit
