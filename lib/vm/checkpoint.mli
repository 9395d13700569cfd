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
    a single set serves both injection techniques.  It is taken at the
    first block start other than a function's entry (a pc only a jump
    leads to) once an ordinal has crossed the interval, so the rejoin
    probe, which runs at jumps, can watch every point.  Such a pc starts
    a dyn segment ({!Code}), which the recording run's counting loop
    runs as one chain, so captures happen at segment starts, with every
    frame's ordinals and [last_write] exact there.  The golden prefix
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
      (** the function's real registers, its first [nregs] slots; the
          constant slots after them never change, so resuming takes them
          from the function's initial frame *)
  fs_flts : float array;
      (** the real registers' float slots, or one shared empty array for
          a function without a float register, which nothing writes *)
  fs_lw : int array;  (** per real register, the dyn of its last write *)
}
(** One frame of the captured call stack (private copies).  It keeps
    only what a run can change, and the rejoin probe and the cycle exit
    compare exactly that. *)

type point = {
  ck_dyn : int;  (** dynamic instructions executed before this point *)
  ck_rc : int;  (** read-candidate ordinals consumed *)
  ck_wc : int;  (** write-candidate ordinals consumed *)
  ck_out : string;  (** output emitted so far *)
  ck_stack : frame_snap array;  (** outermost first *)
  ck_pages : (int * bytes) array;
      (** dirty pages at capture; with the pristine template this is the
          whole memory image.  A page whose bytes did not change since
          the previous point shares that point's copy
          ({!Memory.snapshot_pages}); nothing mutates a copy *)
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
  read_cands : int;
      (** the golden run's dynamic inject-on-read candidates (Table II):
          the one place a candidate total is kept, since a faulty run
          stops counting once its injector is done *)
  write_cands : int;  (** its dynamic inject-on-write candidates *)
}
(** Everything one golden run leaves for the faulty runs and the
    workload: the points to restore from, the reference {!Code}'s early
    exits compare against, and the candidate totals.  The points are also the states a run may rejoin, at any
    dyn and past any output: the golden-rejoin exit watches the
    innermost pc of the point nearest in dyn (a jump target) and
    compares the point's stack and, through the page liveness, its live
    memory.  The golden
    end state is what a rejoined run's result is built from (its output
    past the point's [ck_out], its [dyn_count] moved by the run's
    distance from the point), and past its length the cycle exit
    searches. *)

type recorder = {
  mutable interval : int;
  mutable next_rc : int;
  mutable next_wc : int;
  mutable rev_points : point list;
  mutable n_points : int;
  mutable last_read : int array;
  mutable golden : Exec.result option;
  mutable read_cands : int;
  mutable write_cands : int;
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

val complete :
  recorder ->
  last_read:int array ->
  read_cands:int ->
  write_cands:int ->
  Exec.result ->
  unit
(** Used by {!Code.run} when a recording run ends: its per-page last
    reads, its candidate totals and its result. *)

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
(** Feed a restore to the Obs probes: [onebit_vm_checkpoint_hits_total],
    the [onebit_vm_checkpoint_restore_distance] histogram and the
    restored-page counter.  {!Memory.restore_pages} keeps the plain
    count. *)

val stats : unit -> int * int
(** [(points captured, restores)] since process start; counted even when
    metrics collection is disabled.  The restore count is
    {!Memory.restore_stats}' full restores: {!Code.resume} is the one
    caller of {!Memory.restore_pages}.  Obs mirrors:
    [onebit_vm_checkpoints_total], [onebit_vm_checkpoint_hits_total],
    the [onebit_vm_checkpoint_restore_distance] histogram and the
    saved/restored page counters. *)
