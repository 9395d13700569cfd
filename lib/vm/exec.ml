type status = Finished | Trapped of Trap.t | Hung

type result = {
  status : status;
  output : string;
  dyn_count : int;
}

type frame = {
  ints : int array;
  flts : float array;
  reg_ty : Ir.Ty.t array;
  last_write : int array;
      (* dyn index of each register's most recent write; -1 = never *)
}

type hooks = {
  pre : dyn:int -> frame -> Meta.t -> unit;
  post : dyn:int -> frame -> Meta.t -> unit;
  at : dyn:int -> frame -> Meta.t -> unit;
}

let no_hook ~dyn:_ _ _ = ()

exception Hang_exn

(* Observability: whole-run accounting only — the interpreter loop is
   untouched, so recording cannot perturb execution and costs nothing
   per instruction.  The counters are registered once at module init;
   recording self-gates on [Obs.Metrics.enabled]. *)
let m_runs = Obs.Metrics.counter "onebit_vm_runs_total"
let m_instructions = Obs.Metrics.counter "onebit_vm_instructions_total"
let m_hangs = Obs.Metrics.counter "onebit_vm_hangs_total"

(* Dense [Trap.index]-ed counter array, built once at module init, so
   recording a trap is an array load rather than an assoc-list walk. *)
let m_traps =
  let arr =
    Array.of_list
      (List.map
         (fun t ->
           Obs.Metrics.counter
             ~labels:[ ("kind", Trap.to_string t) ]
             "onebit_vm_traps_total")
         Trap.all)
  in
  List.iteri (fun i t -> assert (Trap.index t = i)) Trap.all;
  arr

(* Shared end-of-run probe for both backends.  [dyn_count] is the run's
   logical length: a checkpoint-resumed run (Code.resume) reports the
   counter it restored plus the suffix it executed, so the instruction
   counter measures campaign work in full-execution-equivalent units
   (the skipped distance is observable separately in the
   onebit_vm_checkpoint_restore_distance histogram). *)
let record_run result =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_instructions result.dyn_count;
    match result.status with
    | Finished -> ()
    | Hung -> Obs.Metrics.incr m_hangs
    | Trapped t -> Obs.Metrics.incr m_traps.(Trap.index t)
  end

let golden_budget = 100_000_000
let max_call_depth = 1000

(* Unsigned comparison of canonical values (works for every width,
   including the 63-bit I64 whose canonical form uses the native sign
   bit as its top bit). *)
let ucompare x y = compare (x lxor min_int) (y lxor min_int)

let to_u64 v = Int64.logand (Int64.of_int v) 0x7FFFFFFFFFFFFFFFL

let exec_binop (op : Ir.Instr.binop) ty x y =
  let mask = Ir.Bits.mask ty in
  let sext = Ir.Bits.sext ty in
  let w = Ir.Ty.width ty in
  match op with
  | Add -> mask (x + y)
  | Sub -> mask (x - y)
  | Mul -> mask (x * y)
  | Sdiv ->
      if y = 0 then raise (Trap.Trap Div_by_zero)
      else mask (sext x / sext y)
  | Udiv ->
      if y = 0 then raise (Trap.Trap Div_by_zero)
      else if w <= 32 then x / y
      else mask (Int64.to_int (Int64.div (to_u64 x) (to_u64 y)))
  | Srem ->
      if y = 0 then raise (Trap.Trap Div_by_zero)
      else mask (Stdlib.( mod ) (sext x) (sext y))
  | Urem ->
      if y = 0 then raise (Trap.Trap Div_by_zero)
      else if w <= 32 then Stdlib.( mod ) x y
      else mask (Int64.to_int (Int64.rem (to_u64 x) (to_u64 y)))
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> if y < 0 || y >= w then 0 else mask (x lsl y)
  | Lshr -> if y < 0 || y >= w then 0 else x lsr y
  | Ashr ->
      let s = if y < 0 || y >= w then w - 1 else y in
      mask (sext x asr s)

let exec_fbinop (op : Ir.Instr.fbinop) x y =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y

let exec_icmp (op : Ir.Instr.icmp) ty x y =
  let sext = Ir.Bits.sext ty in
  let r =
    match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Slt -> sext x < sext y
    | Sle -> sext x <= sext y
    | Sgt -> sext x > sext y
    | Sge -> sext x >= sext y
    | Ult -> ucompare x y < 0
    | Ule -> ucompare x y <= 0
    | Ugt -> ucompare x y > 0
    | Uge -> ucompare x y >= 0
  in
  if r then 1 else 0

let exec_fcmp (op : Ir.Instr.fcmp) x y =
  let ordered = (not (Float.is_nan x)) && not (Float.is_nan y) in
  let r =
    match op with
    | Foeq -> ordered && x = y
    | Fone -> ordered && x <> y
    | Folt -> x < y
    | Fole -> x <= y
    | Fogt -> x > y
    | Foge -> x >= y
  in
  if r then 1 else 0

let float_to_int ty x =
  if Float.is_nan x || Float.abs x >= 4.611686018427387904e18 then 0
  else Ir.Bits.mask ty (int_of_float x)

let add_output buf ty (iv : int) (fv : float) =
  let open Buffer in
  match (ty : Ir.Ty.t) with
  | I1 | I8 -> add_uint8 buf (iv land 0xFF)
  | I16 -> add_uint16_le buf iv
  | I32 | Ptr -> add_int32_le buf (Int32.of_int iv)
  | I64 -> add_int64_le buf (to_u64 iv)
  | F64 -> add_int64_le buf (Int64.bits_of_float fv)

type env = {
  prog : Program.t;
  mem : Memory.t;
  out : Buffer.t;
  fresh : int -> frame;
  call : int -> frame -> unit;
  mutable ret_i : int;
  mutable ret_f : float;
}

let geti (frame : frame) (op : Ir.Instr.operand) =
  match op with
  | Reg r -> frame.ints.(r)
  | Imm n -> n
  | FImm _ | Glob _ -> assert false (* canonicalised; flips keep kinds *)

let getf (frame : frame) (op : Ir.Instr.operand) =
  match op with
  | Reg r -> frame.flts.(r)
  | FImm x -> x
  | Imm _ | Glob _ -> assert false

let step env frame (ins : Ir.Instr.t) =
  match ins with
  | Binop { op; ty; dst; a; b } ->
      frame.ints.(dst) <- exec_binop op ty (geti frame a) (geti frame b)
  | Fbinop { op; dst; a; b } ->
      frame.flts.(dst) <- exec_fbinop op (getf frame a) (getf frame b)
  | Icmp { op; ty; dst; a; b } ->
      frame.ints.(dst) <- exec_icmp op ty (geti frame a) (geti frame b)
  | Fcmp { op; dst; a; b } ->
      frame.ints.(dst) <- exec_fcmp op (getf frame a) (getf frame b)
  | Select { ty; dst; cond; a; b } ->
      if Ir.Ty.is_float ty then
        frame.flts.(dst) <-
          (if geti frame cond <> 0 then getf frame a else getf frame b)
      else
        frame.ints.(dst) <-
          (if geti frame cond <> 0 then geti frame a else geti frame b)
  | Cast { op; from_ty; to_ty; dst; a } -> (
      match op with
      | Trunc | Ptrtoint | Inttoptr ->
          frame.ints.(dst) <- Ir.Bits.mask to_ty (geti frame a)
      | Zext -> frame.ints.(dst) <- geti frame a
      | Sext ->
          frame.ints.(dst) <-
            Ir.Bits.mask to_ty (Ir.Bits.sext from_ty (geti frame a))
      | Fptosi -> frame.ints.(dst) <- float_to_int to_ty (getf frame a)
      | Sitofp ->
          frame.flts.(dst) <-
            float_of_int (Ir.Bits.sext from_ty (geti frame a)))
  | Mov { ty; dst; a } ->
      if Ir.Ty.is_float ty then frame.flts.(dst) <- getf frame a
      else frame.ints.(dst) <- geti frame a
  | Load { ty; dst; addr } ->
      let a = geti frame addr in
      if Ir.Ty.is_float ty then
        frame.flts.(dst) <- Memory.read_f64 env.mem ~addr:a
      else
        frame.ints.(dst) <-
          Memory.read_int env.mem ~width:(Ir.Ty.bytes ty) ~addr:a
  | Store { ty; value; addr } ->
      let a = geti frame addr in
      if Ir.Ty.is_float ty then
        Memory.write_f64 env.mem ~addr:a (getf frame value)
      else
        Memory.write_int env.mem ~width:(Ir.Ty.bytes ty) ~addr:a
          (geti frame value)
  | Gep { dst; base; index; scale } ->
      let idx = Ir.Bits.sext I32 (Ir.Bits.mask I32 (geti frame index)) in
      frame.ints.(dst) <- Ir.Bits.mask Ptr (geti frame base + (idx * scale))
  | Call { dst; callee; args } -> (
      match Hashtbl.find_opt env.prog.targets callee with
      | None -> assert false (* validated; flips never touch names *)
      | Some (B1 f) ->
          let r = f (getf frame (List.hd args)) in
          (match dst with Some d -> frame.flts.(d) <- r | None -> ())
      | Some (B2 f) -> (
          match args with
          | [ a; b ] ->
              let r = f (getf frame a) (getf frame b) in
              (match dst with Some d -> frame.flts.(d) <- r | None -> ())
          | _ -> assert false)
      | Some (Fn callee_idx) ->
          let cf = env.prog.funcs.(callee_idx) in
          let callee_frame = env.fresh callee_idx in
          List.iteri
            (fun i arg ->
              if Ir.Ty.is_float cf.params.(i) then
                callee_frame.flts.(i) <- getf frame arg
              else callee_frame.ints.(i) <- geti frame arg)
            args;
          env.call callee_idx callee_frame;
          (match (dst, cf.ret) with
          | Some d, Some rt ->
              if Ir.Ty.is_float rt then frame.flts.(d) <- env.ret_f
              else frame.ints.(d) <- env.ret_i
          | _ -> ()))
  | Output { ty; value } ->
      if Ir.Ty.is_float ty then add_output env.out ty 0 (getf frame value)
      else add_output env.out ty (geti frame value) 0.0
  | Guard { ty; a; b } ->
      let equal =
        if Ir.Ty.is_float ty then
          Int64.equal
            (Int64.bits_of_float (getf frame a))
            (Int64.bits_of_float (getf frame b))
        else geti frame a = geti frame b
      in
      if not equal then raise (Trap.Trap Guard_violation)
  | Abort -> raise (Trap.Trap Abort_called)

let branch env frame ~ret (term : Ir.Instr.terminator) =
  match term with
  | Br l -> l
  | Cbr { cond; if_true; if_false } ->
      if geti frame cond <> 0 then if_true else if_false
  | Ret None -> -1
  | Ret (Some v) ->
      (match ret with
      | Some rt when Ir.Ty.is_float rt -> env.ret_f <- getf frame v
      | Some _ -> env.ret_i <- geti frame v
      | None -> ());
      -1
  | Unreachable -> raise (Trap.Trap Abort_called)

(* A frame as a call enters it: every register zero and never written. *)
let fresh_frame (f : Program.lfunc) =
  let nregs = Array.length f.reg_ty in
  {
    ints = Array.make nregs 0;
    flts = Array.make nregs 0.0;
    reg_ty = f.reg_ty;
    last_write = Array.make nregs (-1);
  }

let run ?hooks ?mem ~budget (prog : Program.t) =
  let mem =
    match mem with Some m -> m | None -> Memory.clone prog.mem_template
  in
  let dyn = ref 0 and depth = ref 0 in
  let rec env =
    {
      prog;
      mem;
      out = Buffer.create 256;
      fresh = (fun fidx -> fresh_frame prog.funcs.(fidx));
      call =
        (fun fidx frame ->
          let d = !depth in
          if d >= max_call_depth then raise (Trap.Trap Stack_overflow);
          depth := d + 1;
          exec_fn fidx frame;
          depth := d);
      ret_i = 0;
      ret_f = 0.0;
    }
  and exec_fn fidx (frame : frame) =
    let f = prog.funcs.(fidx) in
    let rec run_block bidx =
      let b = f.blocks.(bidx) in
      let n = Array.length b.instrs in
      for k = 0 to n - 1 do
        let m = b.metas.(k) in
        let d = !dyn in
        incr dyn;
        if !dyn > budget then raise Hang_exn;
        (match hooks with Some h -> h.at ~dyn:d frame m | None -> ());
        (match hooks with
        | Some h when Array.length m.srcs > 0 -> h.pre ~dyn:d frame m
        | _ -> ());
        step env frame b.instrs.(k);
        if m.dst >= 0 then begin
          frame.last_write.(m.dst) <- d;
          match hooks with Some h -> h.post ~dyn:d frame m | None -> ()
        end
      done;
      let m = b.metas.(n) in
      let d = !dyn in
      incr dyn;
      if !dyn > budget then raise Hang_exn;
      (match hooks with Some h -> h.at ~dyn:d frame m | None -> ());
      (match hooks with
      | Some h when Array.length m.srcs > 0 -> h.pre ~dyn:d frame m
      | _ -> ());
      let next = branch env frame ~ret:f.ret b.term in
      if next >= 0 then run_block next
    in
    run_block 0
  in
  let status =
    try
      exec_fn prog.main (fresh_frame prog.funcs.(prog.main));
      Finished
    with
    | Trap.Trap t -> Trapped t
    | Hang_exn -> Hung
  in
  let result = { status; output = Buffer.contents env.out; dyn_count = !dyn } in
  record_run result;
  result
