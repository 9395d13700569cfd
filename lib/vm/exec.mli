(** The seed interpreter: the IR's one definition of what an instruction
    does.

    {!step} runs one instruction and {!branch} one terminator; [run]
    interprets a loaded program with them, deterministically, producing
    the output stream and the dynamic instruction count.  The compiled
    pipeline ({!Code}) runs every patched code-domain site through the
    same two functions, so a flipped instruction means exactly the same
    thing on both.  The optional {!hooks} of [run] are the fault
    injector's entry points:

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

val run : ?hooks:hooks -> ?mem:Memory.t -> budget:int -> Program.t -> result
(** Execute the entry function.  [budget] bounds the number of dynamic
    instructions; exceeding it yields [Hung] (the paper's watchdog).  Call
    depth beyond 1000 frames traps as [Stack_overflow].  [mem], when
    given, is executed against directly instead of a fresh clone of the
    program's template — the memory-domain oracle passes the memory its
    injector flips here.  A block profile ([Core.Workload.profile])
    counts the [at] calls at each block's first instruction. *)

val golden_budget : int
(** A generous default budget for fault-free runs (100M instructions). *)

val max_call_depth : int
(** Frame-depth limit shared by both execution backends (1000). *)

val record_run : result -> unit
(** Whole-run observability accounting (runs / instructions / traps /
    hangs).  Called by [run] itself and by the compiled pipeline
    ({!Code.run}), so the vm_* metrics are backend-independent.
    Self-gates on [Obs.Metrics.enabled]. *)

(** {2 Instruction semantics}

    One run's state, as {!step} and {!branch} see it.  [run] makes one
    per run; [Code] makes one per run for its patched sites, whose calls
    enter compiled code. *)

type env = {
  prog : Program.t;  (** the call targets and the callees' signatures *)
  mem : Memory.t;
  out : Buffer.t;  (** the output stream [Output] appends to *)
  fresh : int -> frame;  (** a callee's frame, before its arguments *)
  call : int -> frame -> unit;
      (** run function [fidx] on the frame to its return: checks the
          call depth, and leaves a return value in [ret_i]/[ret_f] *)
  mutable ret_i : int;  (** the last integer return value *)
  mutable ret_f : float;  (** the last [f64] return value *)
}

val step : env -> frame -> Ir.Instr.t -> unit
(** Execute one instruction on [frame], which must be the frame of the
    function it belongs to.  Raises {!Trap.Trap}. *)

val branch : env -> frame -> ret:Ir.Ty.t option -> Ir.Instr.terminator -> int
(** Execute one terminator of a function returning [ret]: the index of
    the block to go on at, or [-1] when the function returns, its value
    (if any) left in [env].  Raises {!Trap.Trap} at [Unreachable]. *)

val to_u64 : int -> int64
(** A canonical [I64] value as its unsigned 64-bit pattern. *)
