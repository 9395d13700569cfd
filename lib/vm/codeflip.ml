(* Stored-program (instruction-cache analog) fault model.

   Every static instruction and terminator of a loaded program is a
   *site*; each site exposes the bit fields an encoded instruction would
   carry, in a fixed canonical order: the destination register, then the
   source operands in operand order, then branch targets.  Register and
   block-target fields are 8 bits wide (a register-file / displacement
   field); integer immediates are as wide as their context type; float
   immediates are the 64 IEEE bits.  Opcodes and structure are never
   flipped — a flip perturbs *which* register/target/constant an
   instruction names, not *what* it does.

   A flip that produces an out-of-range register or block target is an
   undecodable instruction: the effector raises
   {!Trap.Trap}[ Ill_instr], the decode-stage detection analog.
   Immediate flips are always decodable (flipping within the type width
   keeps the canonical form the loader established).

   Flips mutate a private deep copy ([image]) of the program in place,
   so consecutive flips of one experiment accumulate and the seed
   interpreter can execute the image directly (its instruction arrays
   are read afresh each block iteration).  The compiled backend mirrors
   each flip into a {!Code.fork} via the returned patch. *)

let reg_field_width = 8

let op_width ty (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg _ -> reg_field_width
  | Imm _ -> Ir.Ty.width ty
  | FImm _ -> 64
  | Glob _ -> assert false (* canonicalised away by Program.load *)

let flip_op ~nregs ty (op : Ir.Instr.operand) bit =
  match op with
  | Ir.Instr.Reg r ->
      let r' = r lxor (1 lsl bit) in
      if r' >= nregs then raise (Trap.Trap Trap.Ill_instr);
      Ir.Instr.Reg r'
  | Imm n -> Imm (Ir.Bits.flip ty ~bit n)
  | FImm x -> FImm (Ir.Bits.flip_float ~bit x)
  | Glob _ -> assert false

(* An instruction's fields: [(width, flip_at_bit)] in canonical order.
   Closure-building is fine here — this is the injector's slow path (and
   a once-per-workload width scan). *)
let instr_fields ~nregs ~param_tys (ins : Ir.Instr.t) :
    (int * (int -> Ir.Instr.t)) list =
  let dstf d rebuild =
    ( reg_field_width,
      fun bit ->
        let d' = d lxor (1 lsl bit) in
        if d' >= nregs then raise (Trap.Trap Trap.Ill_instr);
        rebuild d' )
  in
  let opf ty op rebuild =
    (op_width ty op, fun bit -> rebuild (flip_op ~nregs ty op bit))
  in
  match ins with
  | Ir.Instr.Binop b ->
      [
        dstf b.dst (fun dst -> Ir.Instr.Binop { b with dst });
        opf b.ty b.a (fun a -> Ir.Instr.Binop { b with a });
        opf b.ty b.b (fun v -> Ir.Instr.Binop { b with b = v });
      ]
  | Fbinop f ->
      [
        dstf f.dst (fun dst -> Ir.Instr.Fbinop { f with dst });
        opf F64 f.a (fun a -> Ir.Instr.Fbinop { f with a });
        opf F64 f.b (fun v -> Ir.Instr.Fbinop { f with b = v });
      ]
  | Icmp c ->
      [
        dstf c.dst (fun dst -> Ir.Instr.Icmp { c with dst });
        opf c.ty c.a (fun a -> Ir.Instr.Icmp { c with a });
        opf c.ty c.b (fun v -> Ir.Instr.Icmp { c with b = v });
      ]
  | Fcmp c ->
      [
        dstf c.dst (fun dst -> Ir.Instr.Fcmp { c with dst });
        opf F64 c.a (fun a -> Ir.Instr.Fcmp { c with a });
        opf F64 c.b (fun v -> Ir.Instr.Fcmp { c with b = v });
      ]
  | Select s ->
      let va_ty = s.ty in
      [
        dstf s.dst (fun dst -> Ir.Instr.Select { s with dst });
        opf I1 s.cond (fun cond -> Ir.Instr.Select { s with cond });
        opf va_ty s.a (fun a -> Ir.Instr.Select { s with a });
        opf va_ty s.b (fun v -> Ir.Instr.Select { s with b = v });
      ]
  | Cast c ->
      [
        dstf c.dst (fun dst -> Ir.Instr.Cast { c with dst });
        opf c.from_ty c.a (fun a -> Ir.Instr.Cast { c with a });
      ]
  | Mov m ->
      [
        dstf m.dst (fun dst -> Ir.Instr.Mov { m with dst });
        opf m.ty m.a (fun a -> Ir.Instr.Mov { m with a });
      ]
  | Load l ->
      [
        dstf l.dst (fun dst -> Ir.Instr.Load { l with dst });
        opf Ptr l.addr (fun addr -> Ir.Instr.Load { l with addr });
      ]
  | Store s ->
      [
        opf s.ty s.value (fun value -> Ir.Instr.Store { s with value });
        opf Ptr s.addr (fun addr -> Ir.Instr.Store { s with addr });
      ]
  | Gep g ->
      [
        dstf g.dst (fun dst -> Ir.Instr.Gep { g with dst });
        opf Ptr g.base (fun base -> Ir.Instr.Gep { g with base });
        opf I32 g.index (fun index -> Ir.Instr.Gep { g with index });
      ]
  | Call c ->
      let dst_fields =
        match c.dst with
        | Some d ->
            [ dstf d (fun d' -> Ir.Instr.Call { c with dst = Some d' }) ]
        | None -> []
      in
      let params = param_tys c.callee in
      let nth_ty j =
        match List.nth_opt params j with Some ty -> ty | None -> Ir.Ty.F64
      in
      let arg_fields =
        List.mapi
          (fun j arg ->
            opf (nth_ty j) arg (fun a ->
                Ir.Instr.Call
                  {
                    c with
                    args = List.mapi (fun k x -> if k = j then a else x) c.args;
                  }))
          c.args
      in
      dst_fields @ arg_fields
  | Output o -> [ opf o.ty o.value (fun value -> Ir.Instr.Output { o with value }) ]
  | Guard g ->
      [
        opf g.ty g.a (fun a -> Ir.Instr.Guard { g with a });
        opf g.ty g.b (fun v -> Ir.Instr.Guard { g with b = v });
      ]
  | Abort -> []

let term_fields ~nregs ~nblocks ~ret (tm : Ir.Instr.terminator) :
    (int * (int -> Ir.Instr.terminator)) list =
  let blkf l rebuild =
    ( reg_field_width,
      fun bit ->
        let l' = l lxor (1 lsl bit) in
        if l' >= nblocks then raise (Trap.Trap Trap.Ill_instr);
        rebuild l' )
  in
  let opf ty op rebuild =
    (op_width ty op, fun bit -> rebuild (flip_op ~nregs ty op bit))
  in
  match tm with
  | Ir.Instr.Br l -> [ blkf l (fun l' -> Ir.Instr.Br l') ]
  | Cbr c ->
      [
        opf I1 c.cond (fun cond -> Ir.Instr.Cbr { c with cond });
        blkf c.if_true (fun t -> Ir.Instr.Cbr { c with if_true = t });
        blkf c.if_false (fun t -> Ir.Instr.Cbr { c with if_false = t });
      ]
  | Ret None -> []
  | Ret (Some v) -> (
      match ret with
      | Some ty -> [ opf ty v (fun v' -> Ir.Instr.Ret (Some v')) ]
      | None -> [])
  | Unreachable -> []

(* ---- the site table ---- *)

type site = {
  s_fidx : int;
  s_bidx : int;
  s_idx : int;  (* instruction index; n_instrs = the terminator *)
  s_bits : int;
  s_off : int;  (* cumulative bit offset; the global bit space is dense *)
}

type sites = {
  tab : site array;
  total_bits : int;
  param_tys : string -> Ir.Ty.t list;
}

let total_bits s = s.total_bits

let param_resolver (p : Program.t) callee =
  match Hashtbl.find_opt p.Program.targets callee with
  | Some (Program.Fn i) -> Array.to_list p.Program.funcs.(i).Program.params
  | Some (B1 _) -> [ Ir.Ty.F64 ]
  | Some (B2 _) -> [ Ir.Ty.F64; Ir.Ty.F64 ]
  | None -> (
      match Ir.Builtins.signature callee with
      | Some (params, _) -> params
      | None -> [])

let sum_widths fields = List.fold_left (fun a (w, _) -> a + w) 0 fields

(* Field widths are flip-invariant (a flip never changes an operand's
   kind or an instruction's structure), so the table built from the
   pristine program stays valid for every image however many flips it
   has absorbed. *)
let sites (p : Program.t) =
  let param_tys = param_resolver p in
  let acc = ref [] and off = ref 0 in
  Array.iteri
    (fun fidx (f : Program.lfunc) ->
      let nregs = Array.length f.Program.reg_ty in
      let nblocks = Array.length f.Program.blocks in
      Array.iteri
        (fun bidx (b : Program.lblock) ->
          let add idx bits =
            acc :=
              { s_fidx = fidx; s_bidx = bidx; s_idx = idx; s_bits = bits;
                s_off = !off }
              :: !acc;
            off := !off + bits
          in
          Array.iteri
            (fun idx ins ->
              add idx (sum_widths (instr_fields ~nregs ~param_tys ins)))
            b.Program.instrs;
          add
            (Array.length b.Program.instrs)
            (sum_widths
               (term_fields ~nregs ~nblocks ~ret:f.Program.ret b.Program.term)))
        f.Program.blocks)
    p.Program.funcs;
  { tab = Array.of_list (List.rev !acc); total_bits = !off; param_tys }

(* Global bit ordinal -> (site ordinal, bit within the site).  Binary
   search over the cumulative offsets. *)
let locate s g =
  if g < 0 || g >= s.total_bits then invalid_arg "Codeflip.locate";
  let lo = ref 0 and hi = ref (Array.length s.tab - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if s.tab.(mid).s_off <= g then lo := mid else hi := mid - 1
  done;
  (!lo, g - s.tab.(!lo).s_off)

let site_bits s i = s.tab.(i).s_bits

(* ---- images ---- *)

(* A deep private copy: fresh block records (their [term] cell is
   mutable) and fresh instruction arrays; metas, reg_ty, memory template
   and targets are shared — flips never touch them. *)
let image (p : Program.t) : Program.t =
  {
    p with
    funcs =
      Array.map
        (fun (f : Program.lfunc) ->
          {
            f with
            Program.blocks =
              Array.map
                (fun (b : Program.lblock) ->
                  { b with Program.instrs = Array.copy b.Program.instrs })
                f.Program.blocks;
          })
        p.Program.funcs;
  }

type patch =
  [ `Instr of Ir.Instr.t | `Term of Ir.Instr.terminator ]

(* Apply field flip [bit] (site-relative) to the image's *current*
   instruction at [site], so flips accumulate.  Returns the patch for
   the compiled backend plus the site coordinates.  Raises
   [Trap.Trap Ill_instr] if the flip is undecodable (the image is left
   unchanged in that case — the run is dead anyway). *)
let flip s (img : Program.t) ~site ~bit =
  let st = s.tab.(site) in
  let f = img.Program.funcs.(st.s_fidx) in
  let b = f.Program.blocks.(st.s_bidx) in
  let nregs = Array.length f.Program.reg_ty in
  let nblocks = Array.length f.Program.blocks in
  let rec pick k = function
    | [] -> invalid_arg "Codeflip.flip: bit out of range"
    | (w, apply) :: rest -> if k < w then apply k else pick (k - w) rest
  in
  if st.s_idx < Array.length b.Program.instrs then begin
    let fields =
      instr_fields ~nregs ~param_tys:s.param_tys b.Program.instrs.(st.s_idx)
    in
    let ins' = pick bit fields in
    b.Program.instrs.(st.s_idx) <- ins';
    (`Instr ins' : patch)
  end
  else begin
    let fields = term_fields ~nregs ~nblocks ~ret:f.Program.ret b.Program.term in
    let tm' = pick bit fields in
    b.Program.term <- tm';
    (`Term tm' : patch)
  end

let site_coords s i =
  let st = s.tab.(i) in
  (st.s_fidx, st.s_bidx, st.s_idx)
