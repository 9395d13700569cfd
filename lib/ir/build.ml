type v = Instr.operand

type bb = {
  id : int;
  bb_name : string;
  mutable instrs : Instr.t list; (* reversed *)
  mutable term : Instr.terminator option;
}

type mb = {
  mutable funcs : Func.t list; (* reversed *)
  mutable globals : Func.global list; (* reversed *)
  sigs : (string, Ty.t list * Ty.t option) Hashtbl.t;
}

type fb = {
  mb : mb;
  fname : string;
  params : Ty.t list;
  fret : Ty.t option;
  mutable regs : Ty.t list; (* reversed *)
  mutable nregs : int;
  mutable blocks : bb list; (* reversed *)
  mutable nblocks : int;
  mutable cur : bb;
}

let create () = { funcs = []; globals = []; sigs = Hashtbl.create 16 }

let add_global mb name init =
  mb.globals <- { Func.g_name = name; g_init = init } :: mb.globals

let global_string mb name s = add_global mb name (Bytes.of_string s)

let global_u8s mb name a =
  let b = Bytes.create (Array.length a) in
  Array.iteri (fun i x -> Bytes.set_uint8 b i (x land 0xFF)) a;
  add_global mb name b

let global_i32s mb name a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int32_le b (4 * i) (Int32.of_int x)) a;
  add_global mb name b

let global_f64s mb name a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) a;
  add_global mb name b

let global_zeros mb name n = add_global mb name (Bytes.make n '\000')

let new_block fb name =
  let b = { id = fb.nblocks; bb_name = name; instrs = []; term = None } in
  fb.nblocks <- fb.nblocks + 1;
  fb.blocks <- b :: fb.blocks;
  b

let fresh_reg fb ty =
  let r = fb.nregs in
  fb.nregs <- r + 1;
  fb.regs <- ty :: fb.regs;
  r

let emit fb i = if fb.cur.term = None then fb.cur.instrs <- i :: fb.cur.instrs

let terminate fb t = if fb.cur.term = None then fb.cur.term <- Some t

let local fb ty = fresh_reg fb ty
let param _fb i : v = Reg i
let r i : v = Instr.Reg i
let ci n : v = Instr.Imm n
let cf x : v = Instr.FImm x
let glob name : v = Instr.Glob name

let set fb reg value =
  let ty =
    (* Registers are appended in reverse; index from the back. *)
    List.nth fb.regs (fb.nregs - 1 - reg)
  in
  emit fb (Instr.Mov { ty; dst = reg; a = value })

let local_init fb ty value =
  let reg = fresh_reg fb ty in
  emit fb (Instr.Mov { ty; dst = reg; a = value });
  reg

let binop fb op ty a b : v =
  let dst = fresh_reg fb ty in
  emit fb (Instr.Binop { op; ty; dst; a; b });
  Reg dst

let add fb ty a b = binop fb Instr.Add ty a b
let sub fb ty a b = binop fb Instr.Sub ty a b
let mul fb ty a b = binop fb Instr.Mul ty a b
let sdiv fb ty a b = binop fb Instr.Sdiv ty a b
let udiv fb ty a b = binop fb Instr.Udiv ty a b
let srem fb ty a b = binop fb Instr.Srem ty a b
let urem fb ty a b = binop fb Instr.Urem ty a b
let band fb ty a b = binop fb Instr.And ty a b
let bor fb ty a b = binop fb Instr.Or ty a b
let bxor fb ty a b = binop fb Instr.Xor ty a b
let shl fb ty a b = binop fb Instr.Shl ty a b
let lshr fb ty a b = binop fb Instr.Lshr ty a b
let ashr fb ty a b = binop fb Instr.Ashr ty a b

let fbinop fb op a b : v =
  let dst = fresh_reg fb Ty.F64 in
  emit fb (Instr.Fbinop { op; dst; a; b });
  Reg dst

let fadd fb a b = fbinop fb Instr.Fadd a b
let fsub fb a b = fbinop fb Instr.Fsub a b
let fmul fb a b = fbinop fb Instr.Fmul a b
let fdiv fb a b = fbinop fb Instr.Fdiv a b

let icmp fb op ty a b : v =
  let dst = fresh_reg fb Ty.I1 in
  emit fb (Instr.Icmp { op; ty; dst; a; b });
  Reg dst

let fcmp fb op a b : v =
  let dst = fresh_reg fb Ty.I1 in
  emit fb (Instr.Fcmp { op; dst; a; b });
  Reg dst

let eq fb ty a b = icmp fb Instr.Eq ty a b
let ne fb ty a b = icmp fb Instr.Ne ty a b
let slt fb ty a b = icmp fb Instr.Slt ty a b
let sle fb ty a b = icmp fb Instr.Sle ty a b
let sgt fb ty a b = icmp fb Instr.Sgt ty a b
let sge fb ty a b = icmp fb Instr.Sge ty a b
let ult fb ty a b = icmp fb Instr.Ult ty a b
let ule fb ty a b = icmp fb Instr.Ule ty a b
let ugt fb ty a b = icmp fb Instr.Ugt ty a b
let uge fb ty a b = icmp fb Instr.Uge ty a b
let feq fb a b = fcmp fb Instr.Foeq a b
let fne fb a b = fcmp fb Instr.Fone a b
let flt fb a b = fcmp fb Instr.Folt a b
let fgt fb a b = fcmp fb Instr.Fogt a b

let cast fb op ~from_ty ~to_ty a : v =
  let dst = fresh_reg fb to_ty in
  emit fb (Instr.Cast { op; from_ty; to_ty; dst; a });
  Reg dst

let select fb ty ~cond a b : v =
  let dst = fresh_reg fb ty in
  emit fb (Instr.Select { ty; dst; cond; a; b });
  Reg dst

let mov fb ty a : v =
  let dst = fresh_reg fb ty in
  emit fb (Instr.Mov { ty; dst; a });
  Reg dst

let load fb ty addr : v =
  let dst = fresh_reg fb ty in
  emit fb (Instr.Load { ty; dst; addr });
  Reg dst

let store fb ty ~value ~addr = emit fb (Instr.Store { ty; value; addr })

let gep fb ~base ~index ~scale : v =
  let dst = fresh_reg fb Ty.Ptr in
  emit fb (Instr.Gep { dst; base; index; scale });
  Reg dst

let off fb p n = if n = 0 then p else gep fb ~base:p ~index:(ci n) ~scale:1

let callee_sig fb name =
  match Hashtbl.find_opt fb.mb.sigs name with
  | Some s -> s
  | None -> (
      match Builtins.signature name with
      | Some s -> s
      | None -> invalid_arg ("Build.call: unknown callee " ^ name))

let call fb name args : v option =
  let _, ret = callee_sig fb name in
  match ret with
  | None ->
      emit fb (Instr.Call { dst = None; callee = name; args });
      None
  | Some ty ->
      let dst = fresh_reg fb ty in
      emit fb (Instr.Call { dst = Some dst; callee = name; args });
      Some (Reg dst)

let call1 fb name args =
  match call fb name args with
  | Some v -> v
  | None -> invalid_arg ("Build.call1: void callee " ^ name)

let callv fb name args =
  emit fb (Instr.Call { dst = None; callee = name; args })

let output fb ty value = emit fb (Instr.Output { ty; value })
let guard fb ty a b = emit fb (Instr.Guard { ty; a; b })
let abort_ fb = emit fb Instr.Abort
let ret fb v = terminate fb (Instr.Ret v)

let if_ fb cond ~then_ ~else_ =
  let bt = new_block fb "then"
  and be = new_block fb "else"
  and bj = new_block fb "join" in
  terminate fb (Instr.Cbr { cond; if_true = bt.id; if_false = be.id });
  fb.cur <- bt;
  then_ ();
  terminate fb (Instr.Br bj.id);
  fb.cur <- be;
  else_ ();
  terminate fb (Instr.Br bj.id);
  fb.cur <- bj

let if_then fb cond body = if_ fb cond ~then_:body ~else_:(fun () -> ())

let while_ fb ~cond ~body =
  let bh = new_block fb "head"
  and bb = new_block fb "body"
  and bx = new_block fb "exit" in
  terminate fb (Instr.Br bh.id);
  fb.cur <- bh;
  let c = cond () in
  terminate fb (Instr.Cbr { cond = c; if_true = bb.id; if_false = bx.id });
  fb.cur <- bb;
  body ();
  terminate fb (Instr.Br bh.id);
  fb.cur <- bx

let for_ fb ~from_ ~below body =
  let i = local_init fb Ty.I32 from_ in
  while_ fb
    ~cond:(fun () -> slt fb Ty.I32 (r i) below)
    ~body:(fun () ->
      body (r i);
      set fb i (add fb Ty.I32 (r i) (ci 1)))

let func mb name ~params ~ret:fret body =
  if Hashtbl.mem mb.sigs name then
    invalid_arg ("Build.func: duplicate function " ^ name);
  Hashtbl.replace mb.sigs name (params, fret);
  let entry = { id = 0; bb_name = "entry"; instrs = []; term = None } in
  let fb =
    {
      mb;
      fname = name;
      params;
      fret;
      regs = [];
      nregs = 0;
      blocks = [ entry ];
      nblocks = 1;
      cur = entry;
    }
  in
  List.iter (fun ty -> ignore (fresh_reg fb ty)) params;
  body fb;
  let default_term : Instr.terminator =
    match fret with None -> Ret None | Some _ -> Unreachable
  in
  let blocks =
    fb.blocks |> List.rev
    |> List.map (fun b ->
           {
             Func.b_name = Printf.sprintf "%s%d" b.bb_name b.id;
             b_instrs = Array.of_list (List.rev b.instrs);
             b_term = Option.value b.term ~default:default_term;
           })
    |> Array.of_list
  in
  let f =
    {
      Func.f_name = name;
      f_params = params;
      f_ret = fret;
      f_blocks = blocks;
      f_reg_ty = Array.of_list (List.rev fb.regs);
    }
  in
  mb.funcs <- f :: mb.funcs

let finish mb =
  let m =
    { Func.m_funcs = List.rev mb.funcs; m_globals = List.rev mb.globals }
  in
  Validate.check_exn m;
  m
