(** Stored-program (code) fault domain: bit flips in the encoded
    instruction fields of a loaded program — the instruction-cache
    analog of the register-domain model.

    Every static instruction and terminator is a {e site}.  A site's
    flippable fields, in canonical encoding order (destination register,
    source operands in operand order, branch targets), are:

    - register fields — 8 bits wide (a register-file address field);
    - block-target fields — 8 bits wide (a branch displacement field);
    - integer immediates — as wide as their context type
      ({!Ir.Ty.width});
    - float immediates — the 64 IEEE bits.

    Opcodes, structure, callee names and arity never flip: a fault
    perturbs {e which} register/target/constant an instruction names,
    never {e what} it does.  A flip that produces a register or block
    target out of the function's range is an undecodable encoding — the
    effector raises {!Trap.Trap}[ Ill_instr], the decode-stage detection
    analog.  Immediate flips are always decodable.

    The global bit space over all sites is dense, so the injector draws
    one ordinal in [0, total_bits) and {!locate}s it. *)

type sites
(** Per-program static table: every site's field widths and cumulative
    bit offsets.  Widths are flip-invariant (flips never change an
    operand's kind), so one table serves every image of the program no
    matter how many flips it has absorbed. *)

val sites : Program.t -> sites
(** Build the table.  Cost is one pass over the static program. *)

val total_bits : sites -> int
(** Size of the program's flippable-bit space — the code domain's
    location-sampling range. *)

val site_bits : sites -> int -> int
(** Flippable bits of one site (0 for [Abort] / [Ret None] /
    [Unreachable]) — the multi-bit win-0 burst's per-site range. *)

val locate : sites -> int -> int * int
(** [locate s g] maps a global bit ordinal to
    [(site ordinal, bit within site)]. *)

val site_coords : sites -> int -> int * int * int
(** [(fidx, bidx, idx)] of a site; [idx] is the instruction index within
    the block, [Array.length instrs] for the terminator — {!Meta.t}'s
    numbering, as {!Code.patch} expects. *)

val image : Program.t -> Program.t
(** A deep private copy whose instruction arrays and terminator cells
    may be mutated by {!flip}.  Metas, register types, memory template
    and call targets are shared with the original.  The seed interpreter
    executes an image directly; the compiled backend mirrors its flips
    into a {!Code.fork} via the returned patches. *)

type patch = [ `Instr of Ir.Instr.t | `Term of Ir.Instr.terminator ]

val flip : sites -> Program.t -> site:int -> bit:int -> patch
(** Flip [bit] (site-relative ordinal into the site's field space) of
    the image's {e current} instruction at [site], in place — so
    consecutive flips of one experiment accumulate.  Returns the
    mutated instruction as a patch for {!Code.patch}.

    @raise Trap.Trap [Ill_instr] when the flip is undecodable; the image
    is left unchanged (the run is dead at that point anyway). *)
