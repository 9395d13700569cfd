(** Reaching definitions and def-use chains.

    A {e definition} is an instruction writing a register, plus one
    {e entry pseudo-definition} per register (parameter binding or the
    VM's zero-initialisation) so that every read has at least one
    reaching definition.  A definition {e reaches} a point if some path
    from the definition to the point does not overwrite the register. *)

type def = {
  def_reg : int;
  def_bidx : int;  (** -1 for an entry pseudo-definition *)
  def_idx : int;
}

val is_entry : def -> bool

type t

val analyse : Cfg.t -> t
val defs : t -> def array

val reaching_of_reg : t -> bidx:int -> idx:int -> reg:int -> def list
(** The reaching definitions of one register at a point — the def-use
    chain entry for that use. *)
