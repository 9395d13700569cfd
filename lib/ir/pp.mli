(** LLVM-flavoured textual rendering of IR, for diagnostics and the CLI. *)

val operand : Instr.operand -> string
val instr : Instr.t -> string
val terminator : Func.t -> Instr.terminator -> string
val func : Func.t -> string
val modl : Func.modl -> string
(** The whole module: one [@name = global [n x i8] 0x...] line per
    global, its initialiser in {!add_hex}'s form, then the functions. *)

val add_hex : Buffer.t -> bytes -> unit
(** [add_hex buf b] appends [b] to [buf] in lowercase hex, two digits
    per byte, first byte first.  The one encoder of global initialiser
    bytes: {!modl}'s global lines and [Fingerprint.environment]'s
    digest input both use it.  Every store key and perfbench manifest
    carries a digest of this form, so it must not change. *)
