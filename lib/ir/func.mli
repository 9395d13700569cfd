(** Functions, globals and whole IR modules. *)

type block = {
  b_name : string;  (** for diagnostics and pretty-printing *)
  b_instrs : Instr.t array;
  b_term : Instr.terminator;
}

type t = {
  f_name : string;
  f_params : Ty.t list;
      (** parameter [i] is passed in register [i] of the callee's frame *)
  f_ret : Ty.t option;
  f_blocks : block array;  (** entry is block 0 *)
  f_reg_ty : Ty.t array;  (** type of every virtual register *)
}

type global = {
  g_name : string;
  g_init : bytes;  (** initial contents; length is the global's size *)
}

type modl = { m_funcs : t list; m_globals : global list }

val find_func : modl -> string -> t option

val static_instr_count : t -> int
(** Instructions plus terminators over all blocks. *)

val reg_count : t -> int
