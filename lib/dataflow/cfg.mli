(** Control-flow graph of one IR function.

    Nodes are block indices into [func.f_blocks]; edges come from the
    block terminators ([Cbr] with equal arms contributes a single edge).
    Block 0 is the entry. *)

type t = {
  func : Ir.Func.t;
  nblocks : int;
  succs : int array array;  (** successor block indices, per block *)
  preds : int array array;  (** predecessor block indices, per block *)
  rpo : int array;
      (** the blocks reachable from the entry, in reverse postorder (the
          natural iteration order for forward analyses) *)
  reachable : bool array;  (** whether each block is reachable from entry *)
}

val of_func : Ir.Func.t -> t
(** Requires branch targets in range (i.e. a module that passed
    [Ir.Validate.check]). *)

val unreachable_blocks : t -> int list
