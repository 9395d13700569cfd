(* Content digests for functions and modules.

   Two digests are computed per function.  The *identity* digest hashes
   the function exactly as written (name, block labels, register
   numbering, register-type table), so it changes whenever the source
   form of the function changes at all — this is the key under which
   per-function outcome profiles are cached.  The *semantic* digest
   hashes an alpha-renamed canonical form in which block labels and
   non-parameter register numbers are replaced by discovery order, so it
   is stable under renamings that cannot affect execution.  The
   environment digest of a function folds together the globals (in
   module order, because layout assigns addresses by position) and the
   semantic digests of every function reachable from the entry point: if
   it is unchanged, the golden run, the candidate stream and every PRNG
   draw of a campaign are unchanged, which is what makes cached
   per-function profiles sound to reuse. *)

let md5 s = Digest.to_hex (Digest.string s)

(* [Pp.func] does not print the register-type table; registers used by
   instructions have their types implied, but the table also sizes the
   frame, so fold it in explicitly. *)
let reg_ty_footer (tys : Ty.t array) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "; regs:";
  Array.iter
    (fun t ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ty.to_string t))
    tys;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let func_print (f : Func.t) = Pp.func f ^ reg_ty_footer f.f_reg_ty

let func f = md5 (func_print f)

(* Canonical form: parameters keep their indices, every other register is
   renumbered by first occurrence (sources before destination, blocks in
   order), registers that never occur are dropped, block labels become
   their indices, and the function name is erased. *)
let canonical (f : Func.t) : Func.t =
  let nparams = List.length f.f_params in
  let map = Hashtbl.create 32 in
  let next = ref nparams in
  let tys = ref [] in
  for i = 0 to nparams - 1 do
    Hashtbl.replace map i i
  done;
  let touch r =
    if not (Hashtbl.mem map r) then begin
      Hashtbl.replace map r !next;
      tys := f.f_reg_ty.(r) :: !tys;
      incr next
    end
  in
  Array.iter
    (fun (b : Func.block) ->
      Array.iter
        (fun i ->
          List.iter touch (Instr.src_regs i);
          Option.iter touch (Instr.dst_reg i))
        b.b_instrs;
      List.iter touch (Instr.term_src_regs b.b_term))
    f.f_blocks;
  let rename r = Hashtbl.find map r in
  let blocks =
    Array.mapi
      (fun bidx (b : Func.block) ->
        {
          Func.b_name = Printf.sprintf "b%d" bidx;
          b_instrs = Array.map (Instr.map_regs rename) b.b_instrs;
          b_term = Instr.term_map_regs rename b.b_term;
        })
      f.f_blocks
  in
  let param_tys = Array.of_list f.f_params in
  let reg_ty =
    Array.init !next (fun _ -> Ty.I64)
  in
  Array.iteri (fun i t -> reg_ty.(i) <- t) param_tys;
  List.iteri
    (fun i t -> reg_ty.(!next - 1 - i) <- t)
    !tys;
  { f with f_name = "f"; f_blocks = blocks; f_reg_ty = reg_ty }

let func_semantic f = md5 (func_print (canonical f))

let modl (m : Func.modl) = md5 (Pp.modl m)

let callees (f : Func.t) =
  let acc = ref [] in
  Array.iter
    (fun (b : Func.block) ->
      Array.iter
        (function
          | Instr.Call { callee; _ } ->
              if not (List.mem callee !acc) then acc := callee :: !acc
          | _ -> ())
        b.b_instrs)
    f.f_blocks;
  List.rev !acc

let reachable ?(entry = "main") (m : Func.modl) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (f : Func.t) -> Hashtbl.replace tbl f.f_name f) m.m_funcs;
  if not (Hashtbl.mem tbl entry) then
    (* no such entry: be conservative, everything matters *)
    List.map (fun (f : Func.t) -> f.f_name) m.m_funcs
  else begin
    let seen = Hashtbl.create 16 in
    let rec visit name =
      match Hashtbl.find_opt tbl name with
      | None -> () (* builtin *)
      | Some f ->
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.replace seen name ();
            List.iter visit (callees f)
          end
    in
    visit entry;
    List.filter_map
      (fun (f : Func.t) ->
        if Hashtbl.mem seen f.f_name then Some f.f_name else None)
      m.m_funcs
  end

let environment ?(entry = "main") (m : Func.modl) =
  let hex =
    List.fold_left
      (fun n (g : Func.global) ->
        n + (2 * Bytes.length g.g_init) + String.length g.g_name + 3)
      0 m.m_globals
  in
  let buf = Buffer.create (hex + 256) in
  List.iter
    (fun (g : Func.global) ->
      Buffer.add_char buf '@';
      Buffer.add_string buf g.g_name;
      Buffer.add_char buf '=';
      Pp.add_hex buf g.g_init;
      Buffer.add_char buf '\n')
    m.m_globals;
  Buffer.add_string buf ("entry=" ^ entry ^ "\n");
  let names = List.sort compare (reachable ~entry m) in
  List.iter
    (fun name ->
      match Func.find_func m name with
      | Some f ->
          Buffer.add_string buf (name ^ ":" ^ func_semantic f ^ "\n")
      | None -> ())
    names;
  md5 (Buffer.contents buf)
