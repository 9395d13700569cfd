type counts = { reads : int; writes : int }

let zero = { reads = 0; writes = 0 }
let add a b = { reads = a.reads + b.reads; writes = a.writes + b.writes }
let scale k c = { reads = k * c.reads; writes = k * c.writes }

(* Candidacy is purely syntactic and invariant under the loader's operand
   canonicalisation (Glob -> Imm never touches Reg operands), so these
   static counts line up exactly with what Vm.Exec counts dynamically. *)
let block_counts (b : Ir.Func.block) =
  let reads = ref 0 and writes = ref 0 in
  Array.iter
    (fun ins ->
      if Ir.Instr.src_regs ins <> [] then incr reads;
      if Ir.Instr.dst_reg ins <> None then incr writes)
    b.b_instrs;
  if Ir.Instr.term_src_regs b.b_term <> [] then incr reads;
  { reads = !reads; writes = !writes }

let func_counts (f : Ir.Func.t) = Array.map block_counts f.f_blocks

let predict (m : Ir.Func.modl) ~(profile : int array array) =
  List.fold_left
    (fun acc (fidx, f) ->
      let per_block = func_counts f in
      let acc = ref acc in
      Array.iteri
        (fun bidx c -> acc := add !acc (scale profile.(fidx).(bidx) c))
        per_block;
      !acc)
    zero
    (List.mapi (fun i f -> (i, f)) m.m_funcs)
