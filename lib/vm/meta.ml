(* Per-instruction operand metadata handed to injection hooks, plus the
   static identity of the instruction (function / block / index within the
   block, where index = block length denotes the terminator).  The identity
   is what lets analyses map a dynamic candidate ordinal back to a static
   program point (static fault-site pruning, Analysis.Prune_static). *)

type t = { srcs : int array; dst : int; fidx : int; bidx : int; idx : int }

let no_operands = { srcs = [||]; dst = -1; fidx = -1; bidx = -1; idx = -1 }

let of_instr ~fidx ~bidx ~idx i =
  {
    srcs = Array.of_list (Ir.Instr.src_regs i);
    dst = (match Ir.Instr.dst_reg i with Some d -> d | None -> -1);
    fidx;
    bidx;
    idx;
  }

let of_term ~fidx ~bidx ~idx t =
  {
    srcs = Array.of_list (Ir.Instr.term_src_regs t);
    dst = -1;
    fidx;
    bidx;
    idx;
  }
