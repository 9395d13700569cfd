(** Structured builder for IR modules.

    The benchmark suite writes its programs against this interface.  A
    function body is an OCaml callback that emits instructions into a
    current block; [if_], [while_] and [for_] introduce the block structure
    so callers never manipulate labels.  Code emitted after a terminator
    (e.g. after [ret] inside a branch) lands in an unreachable block and is
    retained but never executed.

    Example — sum of squares 0..9, written to the output stream:
    {[
      let m = Build.create () in
      Build.func m "main" ~params:[] ~ret:None (fun f ->
          let acc = Build.local_init f I32 (Build.ci 0) in
          Build.for_ f ~from_:(Build.ci 0) ~below:(Build.ci 10) (fun i ->
              let sq = Build.mul f I32 i i in
              Build.set f acc (Build.add f I32 (Build.r acc) sq));
          Build.output f I32 (Build.r acc));
      let m = Build.finish m in
      ...
    ]} *)

type mb
(** A module under construction. *)

type fb
(** A function under construction. *)

type v = Instr.operand

val create : unit -> mb

val finish : mb -> Func.modl
(** Finalise and validate.
    @raise Invalid_argument if validation fails. *)

(** {1 Globals} *)

val global_string : mb -> string -> string -> unit
val global_u8s : mb -> string -> int array -> unit
(** Each element is truncated to one byte. *)

val global_i32s : mb -> string -> int array -> unit
(** Little-endian 32-bit encoding, 4 bytes per element. *)

val global_f64s : mb -> string -> float array -> unit
(** IEEE-754 little-endian, 8 bytes per element. *)

val global_zeros : mb -> string -> int -> unit
(** [n] zero bytes of scratch space. *)

(** {1 Functions} *)

val func : mb -> string -> params:Ty.t list -> ret:Ty.t option -> (fb -> unit) -> unit
(** Define a function.  The signature is registered before the body runs,
    so direct recursion works; calls to not-yet-defined siblings fail at
    build time (define callees first). *)

val param : fb -> int -> v
(** Parameter [i], passed in register [i]. *)

(** {1 Registers, constants} *)

val local : fb -> Ty.t -> int
(** Fresh virtual register (mutable: [set] may target it repeatedly). *)

val local_init : fb -> Ty.t -> v -> int
val set : fb -> int -> v -> unit
(** [set f r v] emits a [Mov] of [v] into register [r]. *)

val r : int -> v
(** Read a register: [r i] is the operand [Reg i]. *)

val ci : int -> v
(** Integer immediate. *)

val cf : float -> v
(** Float immediate. *)

val glob : string -> v
(** Address of a global. *)

(** {1 Integer and float arithmetic}

    Each operation allocates a fresh destination register and returns it as
    an operand. *)

val binop : fb -> Instr.binop -> Ty.t -> v -> v -> v
val add : fb -> Ty.t -> v -> v -> v
val sub : fb -> Ty.t -> v -> v -> v
val mul : fb -> Ty.t -> v -> v -> v
val sdiv : fb -> Ty.t -> v -> v -> v
val udiv : fb -> Ty.t -> v -> v -> v
val srem : fb -> Ty.t -> v -> v -> v
val urem : fb -> Ty.t -> v -> v -> v
val band : fb -> Ty.t -> v -> v -> v
val bor : fb -> Ty.t -> v -> v -> v
val bxor : fb -> Ty.t -> v -> v -> v
val shl : fb -> Ty.t -> v -> v -> v
val lshr : fb -> Ty.t -> v -> v -> v
val ashr : fb -> Ty.t -> v -> v -> v
val fadd : fb -> v -> v -> v
val fsub : fb -> v -> v -> v
val fmul : fb -> v -> v -> v
val fdiv : fb -> v -> v -> v

(** {1 Comparisons} (result is an [I1] register) *)

val icmp : fb -> Instr.icmp -> Ty.t -> v -> v -> v
val fcmp : fb -> Instr.fcmp -> v -> v -> v
val eq : fb -> Ty.t -> v -> v -> v
val ne : fb -> Ty.t -> v -> v -> v
val slt : fb -> Ty.t -> v -> v -> v
val sle : fb -> Ty.t -> v -> v -> v
val sgt : fb -> Ty.t -> v -> v -> v
val sge : fb -> Ty.t -> v -> v -> v
val ult : fb -> Ty.t -> v -> v -> v
val ule : fb -> Ty.t -> v -> v -> v
val ugt : fb -> Ty.t -> v -> v -> v
val uge : fb -> Ty.t -> v -> v -> v
val feq : fb -> v -> v -> v
val fne : fb -> v -> v -> v
val flt : fb -> v -> v -> v
val fgt : fb -> v -> v -> v

(** {1 Casts and moves} *)

val cast : fb -> Instr.cast -> from_ty:Ty.t -> to_ty:Ty.t -> v -> v
val select : fb -> Ty.t -> cond:v -> v -> v -> v
val mov : fb -> Ty.t -> v -> v
(** Copy into a fresh register (useful to materialise an immediate). *)

(** {1 Memory} *)

val load : fb -> Ty.t -> v -> v
val store : fb -> Ty.t -> value:v -> addr:v -> unit
val gep : fb -> base:v -> index:v -> scale:int -> v
val off : fb -> v -> int -> v
(** [off f p n] is [p + n] bytes ([p] unchanged when [n = 0]). *)

(** {1 Calls, output, termination} *)

val call : fb -> string -> v list -> v option
(** Result register if the callee returns a value.
    @raise Invalid_argument on unknown callee. *)

val call1 : fb -> string -> v list -> v
(** Like [call] but requires a returning callee. *)

val callv : fb -> string -> v list -> unit
(** Call discarding any result. *)

val output : fb -> Ty.t -> v -> unit

val guard : fb -> Ty.t -> v -> v -> unit
(** Software detector: trap with [Guard_violation] unless the operands are
    bitwise equal (used by hardening passes and hand-written checks). *)

val abort_ : fb -> unit
val ret : fb -> v option -> unit

(** {1 Structured control flow} *)

val if_ : fb -> v -> then_:(unit -> unit) -> else_:(unit -> unit) -> unit
val if_then : fb -> v -> (unit -> unit) -> unit
val while_ : fb -> cond:(unit -> v) -> body:(unit -> unit) -> unit
val for_ : fb -> from_:v -> below:v -> (v -> unit) -> unit
(** [for_ f ~from_ ~below body] iterates an [I32] counter by +1; [below] is
    re-evaluated each iteration, so prefer loop-invariant operands. *)
