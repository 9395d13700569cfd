(** The execution engine.

    [run] interprets a loaded program deterministically, producing the
    output stream and the dynamic instruction count.  The optional
    {!hooks} are the fault injector's entry points:

    - [pre] fires {e before} an instruction (or terminator) that has at
      least one register source operand executes — the inject-on-read
      window;
    - [post] fires {e after} an instruction that wrote a destination
      register — the inject-on-write window.

    Both receive the current frame so they can flip live register bits in
    place, plus the instruction's dynamic index (0-based position in the
    dynamic instruction stream).  The calls of [pre] and of [post] are
    the program's dynamic inject-on-read and inject-on-write candidates
    (Table II of the paper); a result does not count them, because only
    the golden run's totals are read, and the recording {!Code.run}
    keeps those in its {!Checkpoint.set}. *)

type status = Finished | Trapped of Trap.t | Hung

type result = {
  status : status;
  output : string;  (** bytes appended by [Output] instructions *)
  dyn_count : int;  (** dynamic instructions executed, terminators included *)
}

type frame = {
  ints : int array;  (** integer/pointer registers, canonical form *)
  flts : float array;  (** f64 registers *)
  reg_ty : Ir.Ty.t array;
  last_write : int array;
      (** dynamic index of each register's most recent write, -1 before the
          first; the distance [dyn - last_write.(r)] at a read is the size
          of the read's pre-injection equivalence class (Barbosa et al.'s
          weight, discussed in the paper's §III-A1) *)
}

type hooks = {
  pre : dyn:int -> frame -> Meta.t -> unit;
  post : dyn:int -> frame -> Meta.t -> unit;
  at : dyn:int -> frame -> Meta.t -> unit;
      (** fires before {e every} dynamic instruction and terminator,
          candidate or not — the time axis of the [Mem]/[Code] fault
          domains, whose flips land between dynamic instructions *)
}

val no_hook : dyn:int -> frame -> Meta.t -> unit
(** A no-op hook body, for callers that only need one or two of the
    three entry points. *)

val run :
  ?hooks:hooks ->
  ?block_hook:(fidx:int -> bidx:int -> unit) ->
  ?mem:Memory.t ->
  budget:int ->
  Program.t ->
  result
(** Execute the entry function.  [budget] bounds the number of dynamic
    instructions; exceeding it yields [Hung] (the paper's watchdog).  Call
    depth beyond 1000 frames traps as [Stack_overflow].  [mem], when
    given, is executed against directly instead of a fresh clone of the
    program's template — the memory-domain injector passes a
    pre-faulted or undo-tracking memory here.

    [block_hook] fires on entry to every basic block, with its function
    and block indices.  It is the only source of a block profile
    ([Core.Workload.profile]): the compiled pipeline has no block hook,
    so campaigns never pay for one. *)

val golden_budget : int
(** A generous default budget for fault-free runs (100M instructions). *)

val max_call_depth : int
(** Frame-depth limit shared by both execution backends (1000). *)

val record_run : result -> unit
(** Whole-run observability accounting (runs / instructions / traps /
    hangs).  Called by [run] itself and by the compiled pipeline
    ({!Code.run}), so the vm_* metrics are backend-independent.
    Self-gates on [Obs.Metrics.enabled]. *)

(** {2 Shared instruction semantics}

    The single definition of each operator's semantics, used by this
    interpreter and by the compiled pipeline's generic fallback uop
    ([Code]'s [Uinterp], which executes code-domain-mutated
    instructions) so a flipped instruction means exactly the same thing
    on both backends. *)

val exec_binop : Ir.Instr.binop -> Ir.Ty.t -> int -> int -> int
val exec_fbinop : Ir.Instr.fbinop -> float -> float -> float
val exec_icmp : Ir.Instr.icmp -> Ir.Ty.t -> int -> int -> int
val exec_fcmp : Ir.Instr.fcmp -> float -> float -> int
val float_to_int : Ir.Ty.t -> float -> int
val to_u64 : int -> int64

val add_output : Buffer.t -> Ir.Ty.t -> int -> float -> unit
(** Append one [Output] value to the stream ([iv] for integer types,
    [fv] for [F64]). *)
