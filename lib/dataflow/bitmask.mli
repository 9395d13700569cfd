(** Backward demanded-bits analysis (in the style of BEC's bit-level
    static analysis, PAPERS.md).

    For every program point and register, computes a mask of the bits
    whose value can still influence something observable — output bytes,
    traps, control flow or memory — on some path from that point.  A bit
    outside the mask is {e dead}: flipping it there is provably benign,
    which is what {!Prune} exploits.

    Integer masks use canonical bit positions [0 .. width-1].  F64
    registers cannot be tracked per-bit in a native int, so their demand
    is boolean: [0] (no path reads the register — all 64 bits dead) or
    [-1] (possibly read — all bits demanded). *)

val full_width : int -> int
(** Mask of a given bit width ([-1] at the native word size). *)

val full_of : Ir.Ty.t -> int
(** Full demand mask of a register of the given type. *)

val instr_uses :
  ?call_demand:(string -> int array option) ->
  Ir.Ty.t array ->
  Ir.Instr.t ->
  after:int array ->
  (int * int) list
(** [(register, demand)] contributed by each Reg source-operand slot of
    the instruction, aligned with [Ir.Instr.src_regs] order, given the
    per-register demand [after] the instruction.

    [call_demand callee] may supply per-parameter entry demand masks for
    a module function, refining the default assumption that call
    arguments escape fully.  The masks must be a sound fixpoint for the
    callee (everything the callee can observably do with each parameter
    bit), e.g. the [params_demanded] of {!Summary}. *)

val term_uses : Ir.Ty.t array -> Ir.Instr.terminator -> (int * int) list
(** Same for a terminator (control flow and returns demand fully). *)

type t

val analyse : ?call_demand:(string -> int array option) -> Ir.Func.t -> t

val demand_before : t -> bidx:int -> idx:int -> int array
(** Per-register demand just before point [idx] of block [bidx]; [idx]
    equal to the block's instruction count designates the terminator.
    The returned array must not be mutated. *)

val demand_after : t -> bidx:int -> idx:int -> int array
(** Demand just after point [idx]; after the terminator this is the
    block-exit state (join of successor entry states). *)
