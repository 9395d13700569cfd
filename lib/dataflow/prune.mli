(** Static error-space pruning.

    Classifies single-bit fault sites — (instruction, register, bit) for
    inject-on-read, (instruction, bit of the destination) for
    inject-on-write — as [Provably_benign] (the flipped bit is dead under
    {!Bitmask}: no execution can observe it) or [Must_run] (a fault
    injection experiment is required).  The paper's RQ5 shows most of the
    error space is predictable from cheaper experiments; this is the
    static-analysis counterpart: pruned sites need no run at all. *)

type verdict = Provably_benign | Must_run

type t

val analyse : Ir.Func.t -> t

val read_demand : t -> bidx:int -> idx:int -> reg:int -> int
(** Demand mask governing a flip of [reg] just before point [idx] of
    block [bidx] executes ([idx] = block length: the terminator).  Covers
    both the instruction's own reads of [reg] and, unless it redefines
    [reg], all downstream consumers. *)

val write_demand : t -> bidx:int -> idx:int -> int
(** Demand mask on the destination register just after instruction [idx]
    of block [bidx] writes it.
    @raise Invalid_argument if the instruction has no destination. *)

val is_benign : Ir.Ty.t -> demand:int -> bit:int -> bool
val flip_width : Ir.Ty.t -> int
(** Bit positions the injector targets: [Ty.width], except 64 for f64. *)

val benign_bits : Ir.Ty.t -> demand:int -> int
(** How many of [flip_width] bit positions are provably benign. *)

val classify_read : t -> bidx:int -> idx:int -> reg:int -> bit:int -> verdict
val classify_write : t -> bidx:int -> idx:int -> bit:int -> verdict

val forwarded_write : t -> bidx:int -> idx:int -> int option
(** If the next same-block mention of instruction [idx]'s destination is
    a read at point [j] (possibly the terminator, at [j] = block length),
    returns [Some j]: a write-site flip there is outcome-equivalent to
    the read-site flip of the same register and bit at [j], because the
    instructions in between never touch the register and hence execute
    exactly as in the fault-free run.  Such write experiments are
    {e redundant} — predictable from the read campaign without a run. *)

type summary = {
  read_total : int;  (** single-bit error-space elements, inject-on-read *)
  read_benign : int;
  read_redundant : int;
      (** elements of duplicate same-register operand slots: the injector
          flips the register, so they replay another slot's experiment *)
  write_total : int;
  write_benign : int;
  write_redundant : int;  (** non-benign bits of forwarded write sites *)
}

val summarise : Ir.Func.modl -> profile:int array array -> summary
(** Weight every static site by its golden-run execution frequency (the
    matrix [Core.Workload.profile] computes on demand, indexed
    [fidx].[bidx]) so the totals measure the {e dynamic}
    single-bit error space the injector samples from.  [benign] and
    [redundant] are disjoint: a pruned element is counted as benign when
    its bit is provably dead and as redundant otherwise. *)

val benign_fraction : total:int -> benign:int -> float
