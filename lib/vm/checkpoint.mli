(** Golden-prefix checkpoints for the compiled VM.

    Every experiment is deterministic and fault-free up to its first
    flip, whose candidate ordinal is known at injector creation.  The
    workload's golden run ({!Code.run} with a {!recorder}, in
    [Core.Workload.make]) captures the complete VM state every
    [interval] candidate instructions, and the workload keeps the set;
    {!select} then finds the nearest checkpoint at-or-before an
    experiment's first target and {!Code.resume} executes only the
    suffix.

    A checkpoint is taken at the top of the interpreter loop — before
    the instruction's dyn increment and candidate blocks — and carries
    {e both} the read- and write-candidate ordinals consumed so far, so
    a single set serves both injection techniques.  The golden prefix
    fires no injector events and consumes no randomness, which is why a
    resumed run is bit-identical to a full one (enforced by
    test/suite_checkpoint.ml and the CI pipeline differential).

    The same recording run leaves what {!Code}'s early exits compare a
    faulty suffix against: the points double as the golden states a run
    may rejoin, the per-page last reads say which memory still matters
    at each of them, and the golden end state is what a rejoined run
    returns. *)

val interval : int
(** The capture interval of production checkpoint sets: 1024 candidate
    instructions. *)

type frame_snap = {
  fs_fidx : int;  (** compiled-function index *)
  fs_pc : int;
      (** innermost frame: pc to resume at; outer frames: pc of the
          in-progress call instruction *)
  fs_call_dyn : int;
      (** outer frames: the call's dynamic index, used to replay its
          write-candidate post-block exactly; 0 for the innermost *)
  fs_ints : int array;
  fs_flts : float array;
  fs_lw : int array;
}
(** One frame of the captured call stack (private copies). *)

type point = {
  ck_dyn : int;  (** dynamic instructions executed before this point *)
  ck_rc : int;  (** read-candidate ordinals consumed *)
  ck_wc : int;  (** write-candidate ordinals consumed *)
  ck_out : string;  (** output emitted so far *)
  ck_stack : frame_snap array;  (** outermost first *)
  ck_pages : (int * bytes) array;
      (** dirty pages at capture; with the pristine template this is the
          whole memory image *)
}

type set = {
  interval : int;
  points : point array;  (** ordinals increase with index *)
  last_read : int array;
      (** per {!Memory.page_size} page: the last dynamic index at which
          the golden run loads from it ([-1] if never).  A page whose
          last read lies before a point is dead there: the golden
          suffix never looks at it again *)
  golden : Exec.result;  (** the golden run's end state *)
}
(** Everything one golden run leaves for the faulty runs: the points to
    restore from, and the reference {!Code}'s early exits compare
    against — the page liveness, for the golden-rejoin exit, and the
    end state, which that exit returns and past whose length the cycle
    exit searches. *)

type recorder = {
  mutable interval : int;
  mutable next_rc : int;
  mutable next_wc : int;
  mutable rev_points : point list;
  mutable n_points : int;
  mutable last_read : int array;
  mutable golden : Exec.result option;
}
(** Mutable capture state threaded through a recording {!Code.run}.
    Transparent so the run loop's trigger test ([rc >= next_rc || wc >=
    next_wc]) is two field loads; treat as opaque elsewhere. *)

val recorder : interval:int -> recorder
(** A fresh recorder capturing every [interval] candidate instructions
    (on either ordinal axis).  When a program accumulates more than an
    internal cap (1024 points) the set is thinned to every other point
    and the interval doubles, bounding memory for any program length.
    Raises [Invalid_argument] if [interval <= 0]. *)

val finish : recorder -> set
(** The recorded set.  Raises [Invalid_argument] unless the recording
    run has completed; callers keep the set only when its
    [golden.status] is [Finished]. *)

val add : recorder -> point -> unit
(** Used by {!Code.run}'s capture path; re-arms the trigger thresholds. *)

val complete : recorder -> last_read:int array -> Exec.result -> unit
(** Used by {!Code.run} when a recording run ends: its per-page last
    reads and its result. *)

val null_recorder : recorder
(** Thresholds pinned at [max_int]; never captures.  The run loop's
    placeholder for non-recording runs. *)

val select :
  set -> axis:[ `Read | `Write | `Dyn ] -> target:int -> point option
(** Greatest point whose consumed-ordinal count on [axis] is [<= target]
    (binary search), or [None] if even the first checkpoint lies beyond
    the target.  [`Dyn] selects on the raw dynamic-instruction counter —
    the [Mem]/[Code] fault domains' time axis; a captured call frame's
    call ran strictly before [ck_dyn], so resuming cannot skip the
    target's top-of-loop event. *)

val note_restore : point -> unit
(** Count a restore (plain counter + Obs hit/distance/pages probes). *)

val stats : unit -> int * int
(** [(points captured, restores)] since process start; counted even when
    metrics collection is disabled.  Obs mirrors:
    [onebit_vm_checkpoints_total], [onebit_vm_checkpoint_hits_total],
    the [onebit_vm_checkpoint_restore_distance] histogram and the
    saved/restored page counters. *)

val working_mem : digest:string -> Memory.t -> Memory.t
(** The calling domain's reusable undo-tracking memory for [digest],
    created from [template] on first use (domain-local storage).  Callers
    must {!Memory.reset} or {!Memory.restore_pages} it before each run;
    domains execute their experiments sequentially, so one memory per
    (domain, program) suffices.  Entries are never evicted: a workload
    cannot own its memories without one domain-local key per workload,
    which would leak the same way. *)
