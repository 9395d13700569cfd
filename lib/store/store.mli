(** Crash-tolerant, append-only campaign result store.

    Results are stored at shard granularity, keyed by (program, IR digest,
    spec, n, seed, shard range), as checksummed JSONL records in numbered
    segment files; per-function profiles share the segments under their
    own keys.  Both record kinds, and the fleet's completion messages,
    carry their outcome counts in one codec: the nine value fields of a
    {!Core.Campaign.profile}, with a profile record adding its size in
    front.  Appends are flushed record-by-record so a killed run loses at
    most the record being written.  The loader drops an unterminated
    tail record (a store reopened over one appends to a fresh segment, so
    no record is ever written after it), and counts as corrupt any record
    whose checksum or shape is wrong or whose counts do not add up
    ({!Core.Campaign.consistent}).  Compaction re-reads the segments on
    disk and rewrites their live records into a fresh segment with an
    atomic rename.

    Handles share a directory safely, in one process or several: appends
    and compaction take an advisory file lock, and a handle holds a
    writer lease from its first append until {!close}, which {!gc} on
    any other handle respects.  One handle is safe to share between the
    engine's worker domains: all operations take an internal lock. *)

module Jsonx : module type of Jsonx
(** The canonical JSON codec used for records (re-exported for tests). *)

type t

type key = {
  program : string;
  digest : string;  (** md5 hex of the printed IR ({!Core.Workload.digest}) *)
  technique : string;
  max_mbf : int;
  win : string;
  domain : string;
      (** fault domain ({!Core.Domain.to_string}); serialised as an
          optional trailing "dom" member omitted for ["reg"], so stores
          written before fault domains existed load (and index) as
          register-domain records unchanged *)
  n : int;  (** campaign size the shard belongs to *)
  seed : int64;
  lo : int;
  hi : int;
}

val key :
  program:string ->
  digest:string ->
  spec:Core.Spec.t ->
  n:int -> seed:int64 -> lo:int -> hi:int -> key

type pkey = {
  pk_program : string;
  pk_func : string;  (** function name within the program *)
  pk_fdigest : string;
      (** identity digest of the function ([Ir.Fingerprint.func]) *)
  pk_env : string;
      (** environment digest of the module
          ([Ir.Fingerprint.environment]) *)
  pk_technique : string;
  pk_max_mbf : int;
  pk_win : string;
  pk_domain : string;  (** fault domain; same legacy encoding as {!key} *)
  pk_n : int;  (** campaign size the profile was partitioned from *)
  pk_seed : int64;
}
(** Key of a cached per-function outcome profile
    ({!Core.Campaign.profile}).  The identity digest pins the function's
    own source form; the environment digest pins everything else that
    determines the experiment partition, so a hit is exact — see
    [Engine.Incremental]. *)

val profile_key :
  program:string ->
  func:string ->
  fdigest:string ->
  env:string ->
  spec:Core.Spec.t ->
  n:int -> seed:int64 -> pkey

type stats = {
  records : int;
  segments : int;
  bytes : int;
  truncated : int;  (** incomplete tail records dropped at open *)
  corrupt : int;
      (** records dropped at open for a bad checksum, a bad shape or
          counts that do not add up *)
}

type gc_report = {
  live_records : int;
  dropped_duplicates : int;
  segments_before : int;
  segments_after : int;
  bytes_before : int;
  bytes_after : int;
}

val open_dir : ?segment_bytes:int -> ?fsync:bool -> string -> t
(** Open (creating if necessary) a store directory.  [segment_bytes]
    (default 8 MiB) bounds a segment before rotation; [fsync] (default
    false) additionally fsyncs after every appended record — record
    flushes alone already survive a killed process, fsync extends that to
    a crashed machine. *)

val lookup : t -> key -> Core.Campaign.shard option
val add : t -> key -> Core.Campaign.shard -> unit
(** Durably append one shard result (no-op if the key is already
    present).  Kept experiment records are not persisted. *)

val lookup_profile : t -> pkey -> Core.Campaign.profile option
val add_profile : t -> pkey -> Core.Campaign.profile -> unit
(** Durably append one per-function outcome profile (no-op if the key
    is already present).  Profile records share the segment files with
    shard records; stores written before profiles existed load
    unchanged. *)

val fold : t -> (key -> Core.Campaign.shard -> 'a -> 'a) -> 'a -> 'a
(** Shard records only. *)

val fold_profiles : t -> (pkey -> Core.Campaign.profile -> 'a -> 'a) -> 'a -> 'a
(** Profile records only. *)

val stats : t -> stats

exception Busy of int list
(** Raised by {!gc} when other handles hold writer leases on the store;
    carries the pids of their processes, which may include this one. *)

val gc : t -> gc_report
(** Compact: re-read every segment on disk, so records other handles
    appended since this one opened are kept, rewrite the live records
    into one segment past the newest on disk (fsync + atomic rename),
    then unlink the segments read.  The whole compaction holds the file
    lock appends take, so it never interleaves with an append.  A handle
    whose active segment a compaction removed appends past the newest
    segment at its first append.

    @raise Busy if another handle, in this process or another, holds a
    writer lease — compacting would remove segments it appends to. *)

val live_leases : t -> int list
(** Pids of the processes whose handles hold writer leases, this one's
    included.  A handle takes its lease at its first append (a
    [lease-<pid>-<k>] marker file in the store directory) and drops it
    at {!close}; markers of dead processes are stale and swept here and
    by {!gc}, so a SIGKILLed writer never wedges the store. *)

val shard_json : Core.Campaign.shard -> Jsonx.t
val shard_of_json : lo:int -> hi:int -> Jsonx.t -> Core.Campaign.shard option
(** The shard payload codec (re-exported for the fleet wire protocol,
    which ships shards in exactly their store representation).  Decoding
    returns [None] unless the counts are consistent with the
    [hi - lo] experiments of the range. *)

val close : t -> unit
val dir : t -> string
