type block = {
  b_name : string;
  b_instrs : Instr.t array;
  b_term : Instr.terminator;
}

type t = {
  f_name : string;
  f_params : Ty.t list;
  f_ret : Ty.t option;
  f_blocks : block array;
  f_reg_ty : Ty.t array;
}

type global = { g_name : string; g_init : bytes }
type modl = { m_funcs : t list; m_globals : global list }

let find_func m name = List.find_opt (fun f -> f.f_name = name) m.m_funcs

let static_instr_count f =
  Array.fold_left
    (fun acc b -> acc + Array.length b.b_instrs + 1)
    0 f.f_blocks

let reg_count f = Array.length f.f_reg_ty
