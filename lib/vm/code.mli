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

    {!run} executes compiled code with run-until-event fault scheduling,
    on one loop body instantiated twice.
    - The {b counting} loop keeps the candidate ordinals and
      [last_write] and watches the injector's event thresholds; the
      injector's slow path runs only when one is crossed.  Recording
      runs use it throughout, and faulty runs until the injector's last
      event.
    - The {b quiet} loop does, per instruction, only the budget compare
      and the dispatch; jumps still compare their target with the early
      exits' watched pc, and calls still push the probe's shadow stack.
      A run is quiet when it records nothing and the injector has
      nothing pending ([ev_cand = ev_dyn = max_int]): from the start of
      an eventless run, else from the injector's last event on.  Quiet
      is monotone.  A counting frame hands over to the quiet loop at the
      end of the iteration in which its run went quiet (at an event, or
      when a call it made returns), and every frame entered while quiet
      (a call, a patched call, a resumed outer frame) starts on it.
    So a faulty run pays for fault injection only up to its last flip:
    its result carries no candidate counts, and the golden totals are
    the recording run's ({!Checkpoint.set}).

    Given a golden {!Checkpoint.set} ([exits]), a faulty run also stops
    once its result is decided.  Both exits arm only when the injector
    has no pending events ([ev_cand = ev_dyn = max_int]); until then, and
    in a run without [exits], the loop pays one compare per instruction
    for them (the dyn against the probe's next stop, which is also the
    budget compare) and one per jump (its target against the watched
    pc).
    - {b Golden rejoin}, unless {!patch} has rewritten the code (a
      patched instruction outlives the last flip, so the run no longer
      runs the golden program).  The probe watches the pc of one golden
      point, the one nearest in dyn, while the run is within
      {!rejoin_window} instructions of it; points sit at jump targets
      ({!Checkpoint}), so a jump there triggers the probe.  It compares
      the call stack (per frame: function, pc, integer registers exactly
      and float registers by bits; not the in-progress calls' dynamic
      indexes) and memory on every page the golden run still reads at
      or after the point ({!Checkpoint.set}[.last_read]).  Equal, the run's
      future is the golden run's from the point, [delta] = dyn - [ck_dyn]
      instructions later; if the golden length plus [delta] fits the
      budget, the run returns [Finished] with its own output followed by
      the golden output past [ck_out], and the golden [dyn_count] moved
      by [delta].  Neither the output emitted so far nor [last_write] is
      compared: the program never reads its output, and only the
      injector, which is done, reads [last_write].
      A point whose live memory differed is not compared again in the
      run.
    - {b Hang cycle.}  Past the last window and the golden run's length,
      Brent's search compares the stack (function, pc and registers of
      every frame) and the whole memory with an anchor state, for 4096
      instructions.  An exact repeat after [L] instructions repeats
      forever: the probe adds as many whole periods
      as fit below [budget] to [dyn_count], with a copy of the period's
      output each, and runs the remainder to the watchdog.
    Either way the result is field-for-field the full run's.  Every call
    is on the probe's shadow stack, patched calls interpreted for the
    code domain included, so an unbounded recursion never looks like a
    cycle: its depth grows until it traps [Stack_overflow].

    Behaviour is bit-identical to the seed interpreter {!Exec.run}: same
    outputs, statuses and dynamic counts, and the same candidate
    ordinals and [last_write] contents at every event, and in a
    recording run's totals.  The differential suite and CI pipeline
    smoke enforce this.  There is no per-block callback: the
    block profile is analysis-only and comes from the seed interpreter
    ([Core.Workload.profile]). *)

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
  ?record:Checkpoint.recorder ->
  ?mem:Memory.t ->
  ?exits:Checkpoint.set ->
  budget:int ->
  t ->
  Exec.result
(** Execute the entry function; semantics of [budget], traps, call depth
    and the result fields are exactly those of {!Exec.run}.

    [record] captures golden-prefix checkpoints into the recorder at the
    first jump target after a candidate ordinal crosses its interval
    (see {!Checkpoint}), and leaves the run's candidate totals there;
    recording runs execute on a private undo-tracking memory so each
    point can snapshot its dirty pages.  [Core.Workload.make] passes it:
    its one golden run yields the result and the checkpoint set.

    [mem] supplies the memory to execute against instead of cloning the
    template — it must be in template state ({!Memory.reset} /
    {!Memory.restore_pages} it first); the caller retains ownership
    across runs.  This is what lets a workload's memories
    ([Core.Workload.with_mem]) serve every experiment it runs.

    [exits] arms the early exits against the program's golden set
    (only the cycle exit on a patched {!fork}).  They need an
    undo-tracking [mem] ([Invalid_argument] otherwise; one is made when
    [mem] is omitted) and a golden run that finished, and they stay off
    in recording runs. *)

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
    [mem] must be an undo-tracking memory of this program's template) and
    execute only the suffix.  The result is field-for-field what {!run}
    with the same [events] would return: [dyn_count] and the candidate
    ordinals the injector sees continue from the restored counters, so
    they count the whole logical run, not just the suffix.  [budget]
    keeps its whole-run meaning.

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

val rejoin_window : int
(** How far in dyn, either way, from a golden point the golden-rejoin
    exit compares a run with it (512); a constant, not a knob.  Only
    the point nearest in dyn is watched, so a window also ends halfway
    to the next point. *)

type exit_stats = {
  golden_exits : int;
      (** runs that rejoined the golden run at a point's own dyn *)
  shifted_exits : int;  (** runs that rejoined it at another dyn *)
  cycle_exits : int;  (** runs fast-forwarded to the watchdog *)
  golden_skipped : int;  (** dynamic instructions those exits skipped *)
  shifted_skipped : int;
  cycle_skipped : int;
}

val exit_stats : unit -> exit_stats
(** Early exits since process start; counted even when metrics
    collection is disabled.  Obs mirrors:
    [onebit_vm_early_exits_total{kind="golden"|"shifted"|"cycle"}] and
    [onebit_vm_instructions_skipped_total{kind=...}].  A run that exits
    still counts its logical [dyn_count] in
    [onebit_vm_instructions_total]. *)
