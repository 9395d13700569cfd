let operand = function
  | Instr.Reg r -> Printf.sprintf "%%%d" r
  | Instr.Imm n -> string_of_int n
  | Instr.FImm x -> Printf.sprintf "%h" x
  | Instr.Glob g -> "@" ^ g

let ty = Ty.to_string

let instr (i : Instr.t) =
  match i with
  | Binop { op; ty = t; dst; a; b } ->
      Printf.sprintf "%%%d = %s %s %s, %s" dst (Instr.binop_name op) (ty t)
        (operand a) (operand b)
  | Fbinop { op; dst; a; b } ->
      Printf.sprintf "%%%d = %s f64 %s, %s" dst (Instr.fbinop_name op)
        (operand a) (operand b)
  | Icmp { op; ty = t; dst; a; b } ->
      Printf.sprintf "%%%d = icmp %s %s %s, %s" dst (Instr.icmp_name op) (ty t)
        (operand a) (operand b)
  | Fcmp { op; dst; a; b } ->
      Printf.sprintf "%%%d = fcmp %s f64 %s, %s" dst (Instr.fcmp_name op)
        (operand a) (operand b)
  | Select { ty = t; dst; cond; a; b } ->
      Printf.sprintf "%%%d = select %s %s, %s, %s" dst (operand cond) (ty t)
        (operand a) (operand b)
  | Cast { op; from_ty; to_ty; dst; a } ->
      Printf.sprintf "%%%d = %s %s %s to %s" dst (Instr.cast_name op)
        (ty from_ty) (operand a) (ty to_ty)
  | Mov { ty = t; dst; a } ->
      Printf.sprintf "%%%d = mov %s %s" dst (ty t) (operand a)
  | Load { ty = t; dst; addr } ->
      Printf.sprintf "%%%d = load %s, %s" dst (ty t) (operand addr)
  | Store { ty = t; value; addr } ->
      Printf.sprintf "store %s %s, %s" (ty t) (operand value) (operand addr)
  | Gep { dst; base; index; scale } ->
      Printf.sprintf "%%%d = gep %s, %s x %d" dst (operand base) (operand index)
        scale
  | Call { dst; callee; args } ->
      let args = String.concat ", " (List.map operand args) in
      let prefix =
        match dst with Some d -> Printf.sprintf "%%%d = " d | None -> ""
      in
      Printf.sprintf "%scall @%s(%s)" prefix callee args
  | Output { ty = t; value } ->
      Printf.sprintf "output %s %s" (ty t) (operand value)
  | Guard { ty = t; a; b } ->
      Printf.sprintf "guard %s %s, %s" (ty t) (operand a) (operand b)
  | Abort -> "abort"

let block_name (f : Func.t) l =
  if l >= 0 && l < Array.length f.f_blocks then f.f_blocks.(l).b_name
  else Printf.sprintf "<bad:%d>" l

let terminator f (t : Instr.terminator) =
  match t with
  | Br l -> Printf.sprintf "br %%%s" (block_name f l)
  | Cbr { cond; if_true; if_false } ->
      Printf.sprintf "br %s, %%%s, %%%s" (operand cond) (block_name f if_true)
        (block_name f if_false)
  | Ret None -> "ret void"
  | Ret (Some v) -> Printf.sprintf "ret %s" (operand v)
  | Unreachable -> "unreachable"

let func (f : Func.t) =
  let buf = Buffer.create 1024 in
  let params =
    String.concat ", "
      (List.mapi (fun i t -> Printf.sprintf "%s %%%d" (ty t) i) f.f_params)
  in
  let ret = match f.f_ret with None -> "void" | Some t -> ty t in
  Buffer.add_string buf
    (Printf.sprintf "define %s @%s(%s) {\n" ret f.f_name params);
  Array.iter
    (fun (b : Func.block) ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" b.b_name);
      Array.iter
        (fun i -> Buffer.add_string buf ("  " ^ instr i ^ "\n"))
        b.b_instrs;
      Buffer.add_string buf ("  " ^ terminator f b.b_term ^ "\n"))
    f.f_blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Byte [c]'s two lowercase hex digits as one little-endian 16-bit
   value: the high digit is the first character written. *)
let hex_pairs =
  let digit d = Char.code "0123456789abcdef".[d] in
  Array.init 256 (fun c -> digit (c lsr 4) lor (digit (c land 15) lsl 8))

let add_hex buf b =
  for i = 0 to Bytes.length b - 1 do
    Buffer.add_uint16_le buf
      (Array.unsafe_get hex_pairs (Char.code (Bytes.unsafe_get b i)))
  done

(* Sized for the globals' lines, which dominate large modules; the
   functions' text grows it as needed. *)
let modl (m : Func.modl) =
  let hex =
    List.fold_left
      (fun n (g : Func.global) ->
        n + (2 * Bytes.length g.g_init) + String.length g.g_name + 32)
      0 m.m_globals
  in
  let buf = Buffer.create (hex + 4096) in
  List.iter
    (fun (g : Func.global) ->
      Buffer.add_char buf '@';
      Buffer.add_string buf g.g_name;
      Buffer.add_string buf " = global [";
      Buffer.add_string buf (string_of_int (Bytes.length g.g_init));
      Buffer.add_string buf " x i8] 0x";
      add_hex buf g.g_init;
      Buffer.add_char buf '\n')
    m.m_globals;
  if m.m_globals <> [] then Buffer.add_char buf '\n';
  List.iter
    (fun f ->
      Buffer.add_string buf (func f);
      Buffer.add_char buf '\n')
    m.m_funcs;
  Buffer.contents buf
