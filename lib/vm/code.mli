(** Decode-once, run-many execution pipeline.

    {!compile} lowers a loaded {!Program.t} into flat per-function
    micro-op arrays: opcodes are pre-split into int/float variants with
    masks and shift counts baked in, operands are register-file slots
    (immediates interned into constant slots past the real registers, so
    every operand read is one array load), call targets and block
    successors are integer indices, and the per-site candidate metadata
    ({!Meta.t}) plus packed candidate flags ride alongside each micro-op.
    A workload decodes its program once ([Core.Workload.make]) and the
    resulting code is immutable, shared freely across engine domains.

    {!run} executes compiled code with run-until-event fault scheduling:
    the fast path costs one packed-flags load and at most one integer
    compare per candidate instruction; the injector's slow path runs only
    when a scheduled event threshold is crossed.  With no [events] (or
    thresholds of [max_int] after the final flip) the loop never leaves
    the fast path — this is what golden runs and post-injection execution
    pay, apart from the early exits' probe below.

    Given a golden {!Checkpoint.set} ([exits]), a faulty run also stops
    once its result is decided.  Both exits arm only when the injector
    has no pending events ([ev_cand = ev_dyn = max_int]); until then, and
    in a run without [exits], the loop pays one compare per instruction
    for them.
    - {b Golden rejoin}, unless {!patch} has rewritten the code (a
      patched instruction outlives the last flip, so the run no longer
      runs the golden program).  At each golden point from then on, the probe compares the candidate ordinals, the
      output, the call stack (per frame: function, pc, in-progress call's
      dynamic index, integer registers exactly and float registers by
      bits) and memory on every page the golden run still reads at or
      after the point ({!Checkpoint.set}[.last_read]).  Equal, the run's
      future is the golden run's, so it returns the golden end state.
      [last_write] tables are not compared: only the injector reads
      them, and it is done.
    - {b Hang cycle.}  Past the golden run's length, Brent's search
      compares the stack (function, pc and registers of every frame) and
      the whole memory with an anchor state, for {!cycle_window}
      instructions.  An exact repeat after [L] instructions repeats
      forever: the probe adds as many whole periods as fit below
      [budget] to the counters, with a copy of the period's output each,
      and runs the remainder to the watchdog.
    Either way the result is field-for-field the full run's.  Every call
    is on the probe's shadow stack, patched calls interpreted for the
    code domain included, so an unbounded recursion never looks like a
    cycle: its depth grows until it traps [Stack_overflow].

    Behaviour is bit-identical to the seed interpreter {!Exec.run}: same
    outputs, statuses, dynamic counts, candidate ordinals, [last_write]
    contents at every hook, and [block_hook] call sequence.  The
    differential suite and CI pipeline smoke enforce this. *)

type t
(** Compiled form of a program.  Immutable — except through {!patch} on
    a private {!fork}, the code-domain fault injector's entry point. *)

type events = {
  watch : [ `Read | `Write | `Dyn ];
      (** which stream carries the scheduled events: a candidate stream,
          or ([`Dyn]) the raw dynamic-instruction stream — the
          [Mem]/[Code] fault domains' time axis *)
  mutable ev_cand : int;
      (** fire when the watched candidate ordinal reaches this
          (unused, keep at [max_int], for [`Dyn]) *)
  mutable ev_dyn : int;
      (** or when, at a watched candidate (any instruction for [`Dyn]),
          the dynamic index reaches this; either threshold triggers,
          [max_int] disables *)
  handle : dyn:int -> cand:int -> Exec.frame -> Meta.t -> unit;
      (** the slow path.  Fires at the same point the corresponding
          {!Exec.hooks} callback would ([pre] for [`Read], [post] for
          [`Write], [at] for [`Dyn], where [cand] is [-1]) and must
          refresh [ev_cand]/[ev_dyn] before returning. *)
}

val compile : Program.t -> t
(** Lower a loaded program.  Every call decodes afresh; the caller owns
    the result and may share it across domains. *)

val program : t -> Program.t
(** The program this code was compiled from. *)

val run :
  ?events:events ->
  ?block_hook:(fidx:int -> bidx:int -> unit) ->
  ?record:Checkpoint.recorder ->
  ?mem:Memory.t ->
  ?exits:Checkpoint.set ->
  budget:int ->
  t ->
  Exec.result
(** Execute the entry function; semantics of [budget], traps, call depth
    and the result fields are exactly those of {!Exec.run}.

    [record] captures golden-prefix checkpoints into the recorder every
    time a candidate ordinal crosses its interval (see {!Checkpoint});
    recording runs execute on a private undo-tracking memory so each
    point can snapshot its dirty pages.  [Core.Workload.make] passes it
    together with [block_hook]: its one golden run yields the result,
    the block profile and the checkpoint set.

    [mem] supplies the memory to execute against instead of cloning the
    template — it must be in template state ({!Memory.reset} /
    {!Memory.restore_pages} it first); the caller retains ownership
    across runs.  This is what lets one per-domain memory serve a whole
    shard of experiments.

    [exits] arms the early exits against the program's golden set
    (only the cycle exit on a patched {!fork}).  They need an
    undo-tracking [mem] ([Invalid_argument] otherwise; one is made when
    [mem] is omitted) and a golden run that finished, and they stay off
    in recording runs and runs with a [block_hook], which must see every
    instruction. *)

val resume :
  events:events ->
  mem:Memory.t ->
  point:Checkpoint.point ->
  ?orig:t ->
  ?exits:Checkpoint.set ->
  budget:int ->
  t ->
  Exec.result
(** Restore [point] (counters, output prefix, call stack, dirty pages —
    [mem] must be the undo-tracking working memory for this program) and
    execute only the suffix.  The result is field-for-field what {!run}
    with the same [events] would return: [dyn_count]/candidate ordinals
    continue from the restored counters, so they count the whole logical
    run, not just the suffix.  [budget] keeps its whole-run meaning.

    When executing a {!fork} that {!patch} may rewrite mid-run (the code
    fault domain), pass the pristine original as [orig]: the restored
    stack's in-progress calls complete with their pre-flip destination
    registers, matching non-checkpoint execution, where the call record
    is destructured at dispatch and thus immune to later patches.

    [exits] is {!run}'s. *)

val fork : t -> t
(** A private copy whose micro-op arrays may be {!patch}ed: the
    workload's code stays pristine, and a mutated experiment of the code
    fault domain runs on a throwaway fork (one array copy per function;
    flags, metas, constant pools and the source program are shared). *)

val patch :
  t ->
  fidx:int ->
  bidx:int ->
  idx:int ->
  [ `Instr of Ir.Instr.t | `Term of Ir.Instr.terminator ] ->
  unit
(** Install a (bit-flipped) source instruction at its site, replacing
    the decoded micro-op with a generic interpreting fallback.  [idx] is
    the instruction index within the block ([Array.length instrs] for
    the terminator — {!Meta.t}'s numbering).  The site keeps its
    original candidate flags and metadata, so candidate ordinals and
    [last_write] bookkeeping still follow the golden program structure
    while execution follows the mutated instruction — mirroring the seed
    interpreter on a {!Codeflip} image, with which it stays
    bit-identical.  Only call on a {!fork}. *)

val site_reads : t -> int array array
(** [site_reads code].(fidx).(bidx) is the number of static
    inject-on-read candidate sites in that block (instructions and
    terminator with at least one register source). *)

val site_writes : t -> int array array
(** Static inject-on-write candidate sites per block (instructions with a
    destination register). *)

val cycle_window : int
(** Instructions the cycle exit searches past the golden run's length
    before giving up (4096); a constant, not a knob. *)

type exit_stats = {
  golden_exits : int;  (** runs that rejoined the golden run *)
  cycle_exits : int;  (** runs fast-forwarded to the watchdog *)
  golden_skipped : int;  (** dynamic instructions those exits skipped *)
  cycle_skipped : int;
}

val exit_stats : unit -> exit_stats
(** Early exits since process start; counted even when metrics
    collection is disabled.  Obs mirrors:
    [onebit_vm_early_exits_total{kind="golden"|"cycle"}] and
    [onebit_vm_instructions_skipped_total{kind=...}].  A run that exits
    still counts its logical [dyn_count] in
    [onebit_vm_instructions_total]. *)
