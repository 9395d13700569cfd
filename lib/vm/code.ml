(* Decode-once, run-many execution pipeline.

   [compile] lowers a loaded {!Program.t} into flat per-function micro-op
   arrays: opcodes are pre-split into int/float variants with their
   masks/shift counts precomputed, every operand is resolved to a slot in
   the frame's register file (immediates are interned into constant slots
   appended after the real registers, so an operand read is always one
   array load — no [Reg|Imm|Glob] match), call targets and block
   successors are integer indices, and list-typed call arguments are
   arrays.  The per-site candidate metadata ({!Meta.t}) and packed
   candidate flags ride alongside each micro-op.

   It then compiles every micro-op to OCaml closures with one builder
   ([build]), the only place a micro-op's semantics is written, in two
   forms.  A {e dyn segment} runs from a pc to the next call, patched
   instruction or terminator, inclusive.  The chained form at pc p
   executes p and tail-calls the chained closure of p + 1, up to its
   segment's end, which returns the next pc.  The single-step form
   executes one micro-op and returns the next pc.

   [run] is an event-driven runner over them.  The counting loop keeps
   candidate ordinals and [last_write], and enters the hooked slow path
   (the fault injector) only when a scheduled event threshold is
   crossed; recording runs and faulty runs up to their last flip use
   it, single-stepping.  The quiet runner, which runs everything else,
   adds a whole segment's length to the dyn and runs its chain when the
   segment ends below [limit], and single-steps it otherwise.  After the
   final flip, a run given the golden checkpoint set leaves it only at
   the early-exit probe's stops, which share the limit compare, and at
   jumps to one watched pc: the probe finishes the run as the golden
   run finishes once it has rejoined the golden run, at any dyn and
   past any output, and fast-forwards a hang whose state repeats exactly
   to the watchdog.

   The decode is behaviour-preserving by construction: every micro-op's
   semantics is the specialisation of the corresponding [Exec.step] case
   with the operand resolution and type dispatch hoisted to decode time.
   The differential suite (test/suite_vm_code.ml) holds the two backends
   bit-identical. *)

type events = {
  watch : [ `Read | `Write | `Dyn ];
      (* which stream is monitored for events: a candidate stream, or
         (`Dyn) the raw dynamic-instruction stream — the Mem/Code fault
         domains' time axis, firing via ev_dyn with cand = -1 *)
  mutable ev_cand : int;
      (* fire when the watched candidate ordinal reaches this *)
  mutable ev_dyn : int;
      (* or when, at a watched candidate, dyn reaches this *)
  handle : dyn:int -> cand:int -> Exec.frame -> Meta.t -> unit;
      (* the slow path; must refresh ev_cand/ev_dyn before returning *)
}

type callrec = {
  c_dst : int; (* destination register; -1 = result discarded *)
  c_dst_f : bool; (* callee returns f64 *)
  c_callee : int; (* cfunc index *)
  c_args : int array; (* caller slots, one per callee parameter *)
  c_arg_f : bool array; (* per parameter: float register file *)
}

(* Micro-ops.  All fields are immediate ints (slots, masks, shift counts,
   pc targets) except the builtin closures and the call record, so a
   fetched micro-op costs one tag dispatch and unboxed field reads.
   Naming: [m] = result mask (-1 when the type is full-width), [k] = the
   sign-extension shift (63 - width, 0 when full-width), [w] = width. *)
type uop =
  | Uadd of int * int * int * int (* dst, a, b, m *)
  | Usub of int * int * int * int
  | Umul of int * int * int * int
  | Usdiv of int * int * int * int * int (* dst, a, b, k, m *)
  | Uudiv_s of int * int * int (* dst, a, b; width <= 32 *)
  | Uudiv_l of int * int * int * int (* dst, a, b, m; 64-bit path *)
  | Usrem of int * int * int * int * int (* dst, a, b, k, m *)
  | Uurem_s of int * int * int
  | Uurem_l of int * int * int * int
  | Uand of int * int * int
  | Uor of int * int * int
  | Uxor of int * int * int
  | Ushl of int * int * int * int * int (* dst, a, b, w, m *)
  | Ulshr of int * int * int * int (* dst, a, b, w *)
  | Uashr of int * int * int * int * int * int (* dst, a, b, w, k, m *)
  | Uicmp of int * int * int * int * int (* op, k, dst, a, b *)
  | Ufadd of int * int * int (* dst, a, b over flts *)
  | Ufsub of int * int * int
  | Ufmul of int * int * int
  | Ufdiv of int * int * int
  | Ufcmp of int * int * int * int (* op, dst, a, b *)
  | Usel_i of int * int * int * int (* dst, cond, a, b *)
  | Usel_f of int * int * int * int
  | Umask of int * int * int (* dst, a, m: trunc/ptrtoint/inttoptr *)
  | Usext of int * int * int * int (* dst, a, k(from), m(to) *)
  | Ufptosi of int * int * int (* dst, a(f), m(to) *)
  | Usitofp of int * int * int (* dst(f), a, k(from) *)
  | Umov_i of int * int (* dst, a; also zext *)
  | Umov_f of int * int
  | Uload_i of int * int * int (* dst, addr, width-bytes *)
  | Uload_f of int * int
  (* The loads of a recording run ([recording_funcs]), which also note the
     page they read: production loads pay nothing for the liveness. *)
  | Urload_i of int * int * int
  | Urload_f of int * int
  | Ustore_i of int * int * int (* value, addr, width-bytes *)
  | Ustore_f of int * int
  | Ugep of int * int * int * int (* dst, base, index, scale *)
  | Ucall of callrec
  | Ucall_b1 of int * (float -> float) * int (* dst(-1 = none), f, a *)
  | Ucall_b2 of int * (float -> float -> float) * int * int
  | Uout_i of int * int (* slot, size tag 0:u8 1:u16 2:u32 3:u64 *)
  | Uout_f of int
  | Uguard_i of int * int
  | Uguard_f of int * int
  | Uabort (* Abort instruction and Unreachable terminator *)
  | Ujmp of int (* pc *)
  | Ucbr of int * int * int (* cond, tpc, fpc *)
  | Uret
  | Uret_i of int
  | Uret_f of int
  (* A (possibly bit-flipped) source instruction, installed by [patch]
     when the code domain mutates a site of a forked copy.  It runs on
     the seed interpreter's [Exec.step] or [Exec.branch] against the
     running frame, so a flipped instruction means exactly the same
     thing on both backends.  Slow, but a code-domain experiment patches
     at most [max_mbf] sites. *)
  | Uinterp of Ir.Instr.t
  | Uinterp_t of Ir.Instr.terminator

(* The state of one run, which the compiled closures read and write: the
   closures are built once per code and shared across domains, so every
   per-run value reaches them through this argument. *)
type ctx = {
  mutable dyn : int;
      (* the next instruction's dyn; past a chained segment's end while
         its chain runs, so a trapping closure takes off what follows it *)
  mutable rc : int;
  mutable wc : int;
  mutable ret_i : int;
  mutable ret_f : float;
  mutable limit : int;
      (* the runner leaves its fast path once [dyn] reaches this: the
         budget, or the early-exit probe's next stop if sooner *)
  mutable watch_pc : int;
      (* a jump to this pc probes the golden point the probe watches;
         -1 (no pc) when it watches none *)
  mutable fr : Exec.frame; (* the running frame *)
  mutable ints : int array; (* its register files *)
  mutable flts : float array;
  mutable depth : int; (* the running frame's call depth *)
  mutable rstack : (int * Exec.frame * int * int) list;
      (* shadow call stack, innermost first: (fidx, frame, call pc, call
         dyn) of every in-progress call, [Ucall] or a patched call alike,
         so its length is always the current depth.  Maintained when
         [shadow]. *)
  shadow : bool; (* when recording and when the exits may arm *)
  mem : Memory.t;
  out : Buffer.t;
  last_read : int array;
      (* per memory page, the last dyn at which a recording run loads
         from it: the golden-rejoin exit's page liveness *)
  mutable enter : int -> Exec.frame -> unit;
      (* run function [fidx] on a fresh frame from its first pc, at
         [depth], on the running code, then make the caller's frame the
         running one again *)
  mutable jumped : int -> Exec.frame -> int -> unit;
      (* the probe, after a jump to [watch_pc] *)
  env : Exec.env;
      (* the patched sites' view of the run: [mem], [out], calls through
         [enter], return values copied to and from [ret_i]/[ret_f] *)
}

(* A compiled micro-op: runs against the run's running frame and returns
   the next pc (-1 once the frame returns).  One argument, so a chain's
   tail call jumps straight to the next closure's code. *)
type op = ctx -> int

type cfunc = {
  name : string;
  uops : uop array; (* blocks flattened in order; block b at block_off.(b) *)
  flags : int array;
      (* per-uop: bit0 read-candidate, bit1 write-candidate,
         bits 2.. destination register + 1 (0 = no destination) *)
  metas : Meta.t array; (* per-uop; only touched on the slow path *)
  block_off : int array;
  int_init : int array; (* nslots; constant slots pre-filled *)
  flt_init : float array;
  lw_init : int array; (* nregs of -1 *)
  reg_ty : Ir.Ty.t array; (* the real registers only *)
  has_flt : bool;
      (* has a float register; without one, nothing writes [flts] *)
  chain : op array; (* per pc: the chained form *)
  step : op array;
      (* per pc: the single-step form; a segment's end has one form,
         shared *)
  seg : int array; (* per pc: instructions from it to its segment's end *)
}

type t = {
  funcs : cfunc array;
  main : int;
  mem_template : Memory.t;
  source : Program.t;
  mutable patched : bool;
      (* a fork that [patch] has rewritten: it no longer runs the golden
         program, so the golden-rejoin exit stays off *)
}

let program t = t.source

(* The continuation of a single-step closure, which returns to the
   runner instead of calling it ([go]). *)
let fall : op = fun _ -> assert false

(* ---- decode ---- *)

let mask_of ty =
  let w = Ir.Ty.width ty in
  if w >= 63 then -1 else (1 lsl w) - 1

let sext_shift ty =
  let w = Ir.Ty.width ty in
  if w >= 63 then 0 else 63 - w

let icmp_tag : Ir.Instr.icmp -> int = function
  | Eq -> 0
  | Ne -> 1
  | Slt -> 2
  | Sle -> 3
  | Sgt -> 4
  | Sge -> 5
  | Ult -> 6
  | Ule -> 7
  | Ugt -> 8
  | Uge -> 9

let fcmp_tag : Ir.Instr.fcmp -> int = function
  | Foeq -> 0
  | Fone -> 1
  | Folt -> 2
  | Fole -> 3
  | Fogt -> 4
  | Foge -> 5

let out_tag : Ir.Ty.t -> int = function
  | I1 | I8 -> 0
  | I16 -> 1
  | I32 | Ptr -> 2
  | I64 -> 3
  | F64 -> assert false

let compile_func (p : Program.t) (f : Program.lfunc) : cfunc =
  let nregs = Array.length f.reg_ty in
  let next = ref nregs in
  let iconsts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let fconsts : (int64, int) Hashtbl.t = Hashtbl.create 4 in
  let ivals = ref [] and fvals = ref [] in
  let reg r =
    assert (r >= 0 && r < nregs);
    r
  in
  let islot (op : Ir.Instr.operand) =
    match op with
    | Reg r -> reg r
    | Imm n -> (
        match Hashtbl.find_opt iconsts n with
        | Some s -> s
        | None ->
            let s = !next in
            incr next;
            Hashtbl.add iconsts n s;
            ivals := (s, n) :: !ivals;
            s)
    | FImm _ | Glob _ -> assert false (* canonicalised by Program.load *)
  in
  let fslot (op : Ir.Instr.operand) =
    match op with
    | Reg r -> reg r
    | FImm x -> (
        let bits = Int64.bits_of_float x in
        match Hashtbl.find_opt fconsts bits with
        | Some s -> s
        | None ->
            let s = !next in
            incr next;
            Hashtbl.add fconsts bits s;
            fvals := (s, x) :: !fvals;
            s)
    | Imm _ | Glob _ -> assert false
  in
  let block_off = Array.make (Array.length f.blocks) 0 in
  let total = ref 0 in
  Array.iteri
    (fun b (blk : Program.lblock) ->
      block_off.(b) <- !total;
      total := !total + Array.length blk.instrs + 1)
    f.blocks;
  let decode_instr (ins : Ir.Instr.t) : uop =
    match ins with
    | Binop { op; ty; dst; a; b } -> (
        let dst = reg dst and a = islot a and b = islot b in
        let m = mask_of ty and k = sext_shift ty and w = Ir.Ty.width ty in
        match op with
        | Add -> Uadd (dst, a, b, m)
        | Sub -> Usub (dst, a, b, m)
        | Mul -> Umul (dst, a, b, m)
        | Sdiv -> Usdiv (dst, a, b, k, m)
        | Udiv -> if w <= 32 then Uudiv_s (dst, a, b) else Uudiv_l (dst, a, b, m)
        | Srem -> Usrem (dst, a, b, k, m)
        | Urem -> if w <= 32 then Uurem_s (dst, a, b) else Uurem_l (dst, a, b, m)
        | And -> Uand (dst, a, b)
        | Or -> Uor (dst, a, b)
        | Xor -> Uxor (dst, a, b)
        | Shl -> Ushl (dst, a, b, w, m)
        | Lshr -> Ulshr (dst, a, b, w)
        | Ashr -> Uashr (dst, a, b, w, k, m))
    | Fbinop { op; dst; a; b } -> (
        let dst = reg dst and a = fslot a and b = fslot b in
        match op with
        | Fadd -> Ufadd (dst, a, b)
        | Fsub -> Ufsub (dst, a, b)
        | Fmul -> Ufmul (dst, a, b)
        | Fdiv -> Ufdiv (dst, a, b))
    | Icmp { op; ty; dst; a; b } ->
        Uicmp (icmp_tag op, sext_shift ty, reg dst, islot a, islot b)
    | Fcmp { op; dst; a; b } -> Ufcmp (fcmp_tag op, reg dst, fslot a, fslot b)
    | Select { ty; dst; cond; a; b } ->
        if Ir.Ty.is_float ty then
          Usel_f (reg dst, islot cond, fslot a, fslot b)
        else Usel_i (reg dst, islot cond, islot a, islot b)
    | Cast { op; from_ty; to_ty; dst; a } -> (
        match op with
        | Trunc | Ptrtoint | Inttoptr -> Umask (reg dst, islot a, mask_of to_ty)
        | Zext -> Umov_i (reg dst, islot a)
        | Sext -> Usext (reg dst, islot a, sext_shift from_ty, mask_of to_ty)
        | Fptosi -> Ufptosi (reg dst, fslot a, mask_of to_ty)
        | Sitofp -> Usitofp (reg dst, islot a, sext_shift from_ty))
    | Mov { ty; dst; a } ->
        if Ir.Ty.is_float ty then Umov_f (reg dst, fslot a)
        else Umov_i (reg dst, islot a)
    | Load { ty; dst; addr } ->
        if Ir.Ty.is_float ty then Uload_f (reg dst, islot addr)
        else Uload_i (reg dst, islot addr, Ir.Ty.bytes ty)
    | Store { ty; value; addr } ->
        if Ir.Ty.is_float ty then Ustore_f (fslot value, islot addr)
        else Ustore_i (islot value, islot addr, Ir.Ty.bytes ty)
    | Gep { dst; base; index; scale } ->
        Ugep (reg dst, islot base, islot index, scale)
    | Call { dst; callee; args } -> (
        match Hashtbl.find_opt p.targets callee with
        | None -> assert false (* validated *)
        | Some (B1 fn) ->
            Ucall_b1
              ( (match dst with Some d -> reg d | None -> -1),
                fn,
                fslot (List.hd args) )
        | Some (B2 fn) -> (
            match args with
            | [ a; b ] ->
                Ucall_b2
                  ( (match dst with Some d -> reg d | None -> -1),
                    fn,
                    fslot a,
                    fslot b )
            | _ -> assert false)
        | Some (Fn cidx) ->
            let cf = p.funcs.(cidx) in
            let c_arg_f = Array.map Ir.Ty.is_float cf.params in
            let c_args =
              Array.of_list
                (List.mapi
                   (fun i arg -> if c_arg_f.(i) then fslot arg else islot arg)
                   args)
            in
            let c_dst, c_dst_f =
              match (dst, cf.ret) with
              | Some d, Some rt -> (reg d, Ir.Ty.is_float rt)
              | _ -> (-1, false)
            in
            Ucall { c_dst; c_dst_f; c_callee = cidx; c_args; c_arg_f })
    | Output { ty; value } ->
        if Ir.Ty.is_float ty then Uout_f (fslot value)
        else Uout_i (islot value, out_tag ty)
    | Guard { ty; a; b } ->
        if Ir.Ty.is_float ty then Uguard_f (fslot a, fslot b)
        else Uguard_i (islot a, islot b)
    | Abort -> Uabort
  in
  let decode_term (t : Ir.Instr.terminator) : uop =
    match t with
    | Br l -> Ujmp block_off.(l)
    | Cbr { cond; if_true; if_false } ->
        Ucbr (islot cond, block_off.(if_true), block_off.(if_false))
    | Ret None -> Uret
    | Ret (Some v) -> (
        match f.ret with
        | Some rt when Ir.Ty.is_float rt -> Uret_f (fslot v)
        | Some _ -> Uret_i (islot v)
        | None -> Uret)
    | Unreachable -> Uabort
  in
  let uops = Array.make !total Uret in
  let metas = Array.make !total Meta.no_operands in
  let flags = Array.make !total 0 in
  Array.iteri
    (fun b (blk : Program.lblock) ->
      let off = block_off.(b) in
      let n = Array.length blk.instrs in
      for k = 0 to n - 1 do
        uops.(off + k) <- decode_instr blk.instrs.(k)
      done;
      uops.(off + n) <- decode_term blk.term;
      for k = 0 to n do
        let m = blk.metas.(k) in
        metas.(off + k) <- m;
        let rd = if Array.length m.srcs > 0 then 1 else 0 in
        let wr = if m.dst >= 0 then 2 else 0 in
        flags.(off + k) <- rd lor wr lor ((m.dst + 1) lsl 2)
      done)
    f.blocks;
  let nslots = !next in
  let int_init = Array.make nslots 0 in
  let flt_init = Array.make nslots 0.0 in
  List.iter (fun (s, v) -> int_init.(s) <- v) !ivals;
  List.iter (fun (s, v) -> flt_init.(s) <- v) !fvals;
  {
    name = f.name;
    uops;
    flags;
    metas;
    block_off;
    int_init;
    flt_init;
    lw_init = Array.make nregs (-1);
    reg_ty = f.reg_ty;
    has_flt = Array.exists Ir.Ty.is_float f.reg_ty;
    chain = Array.make !total fall;
    step = Array.make !total fall;
    seg = Array.make !total 0;
  }

(* ---- the closure builder ---- *)

(* A frame as a call enters [cf]: the constant slots filled, every
   register zero and never written.  Register slots 0..nregs-1 then hold
   exactly the seed interpreter's register values (the backends' core
   bit-identity invariant), so a patched site's [Exec.step] reads a
   flipped register index out of them as the seed run on the mutated
   image does. *)
let[@inline] fresh_frame cf =
  {
    Exec.ints = Array.copy cf.int_init;
    flts = Array.copy cf.flt_init;
    reg_ty = cf.reg_ty;
    last_write = Array.copy cf.lw_init;
  }

(* Does the micro-op end its dyn segment?  Terminators, whose block ends
   there; calls, whose callee runs at the call's dyn + 1 and may move
   [limit] or [watch_pc]; and patched instructions, which run on
   [Exec.step] and cannot take a chain's dyn off before they trap. *)
let ends = function
  | Ucall _ | Uinterp _ | Uinterp_t _ | Ujmp _ | Ucbr _ | Uret | Uret_i _
  | Uret_f _ | Uabort ->
      true
  | _ -> false

(* A trap at a chained closure with [after] more instructions in its
   segment: the run ends at the trapping instruction's dyn + 1, as it
   would single-stepping. *)
let trap c after t =
  c.dyn <- c.dyn - after;
  raise (Trap.Trap t)

(* Go on at [i + 1]: down the chain, or, single-stepping, back to the
   runner. *)
let[@inline] go k c i = if k == fall then i + 1 else k c

(* A block exit to [p]: a jump to the watched pc probes first. *)
let[@inline] exit_to c fidx p =
  if p = c.watch_pc then c.jumped fidx c.fr p;
  p

let[@inline] fcmp op x y =
  let ordered = (not (Float.is_nan x)) && not (Float.is_nan y) in
  let r =
    match op with
    | 0 -> ordered && x = y
    | 1 -> ordered && x <> y
    | 2 -> x < y
    | 3 -> x <= y
    | 4 -> x > y
    | _ -> x >= y
  in
  if r then 1 else 0

(* The closure of micro-op [u] at pc [i] of function [fidx].  [k] runs
   next: the chain's closure at [i + 1], or [fall] single-stepping.
   [after] is the number of instructions in the segment after [i] that
   the run's dyn already counts (0 single-stepping).  [next] is the
   micro-op at [i + 1] when chaining: an [icmp] whose register the
   block's [cbr] reads fuses with it, still writing the register, which
   later code may read.  A micro-op that ends its segment ignores [k]
   and returns the pc to go on at.  [funcs] gives a callee's initial
   frame, which is immutable and shared by every fork; the callee's
   closures are the running code's ([ctx.enter]). *)
let build (funcs : cfunc array) (src : Program.t) fidx i u ~after ~(k : op)
    ~next : op =
  match u with
  | Uadd (dst, a, b, m) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          ((Array.unsafe_get ints a + Array.unsafe_get ints b) land m);
        go k c i
  | Usub (dst, a, b, m) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          ((Array.unsafe_get ints a - Array.unsafe_get ints b) land m);
        go k c i
  | Umul (dst, a, b, m) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          ((Array.unsafe_get ints a * Array.unsafe_get ints b) land m);
        go k c i
  | Usdiv (dst, a, b, sh, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        let x = Array.unsafe_get ints a in
        Array.unsafe_set ints dst
          ((((x lsl sh) asr sh) / ((y lsl sh) asr sh)) land m);
        go k c i
  | Uudiv_s (dst, a, b) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        Array.unsafe_set ints dst (Array.unsafe_get ints a / y);
        go k c i
  | Uudiv_l (dst, a, b, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        let x = Array.unsafe_get ints a in
        Array.unsafe_set ints dst
          (Int64.to_int (Int64.div (Exec.to_u64 x) (Exec.to_u64 y)) land m);
        go k c i
  | Usrem (dst, a, b, sh, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        let x = Array.unsafe_get ints a in
        Array.unsafe_set ints dst
          (Stdlib.( mod ) ((x lsl sh) asr sh) ((y lsl sh) asr sh) land m);
        go k c i
  | Uurem_s (dst, a, b) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        Array.unsafe_set ints dst (Stdlib.( mod ) (Array.unsafe_get ints a) y);
        go k c i
  | Uurem_l (dst, a, b, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        if y = 0 then trap c after Div_by_zero;
        let x = Array.unsafe_get ints a in
        Array.unsafe_set ints dst
          (Int64.to_int (Int64.rem (Exec.to_u64 x) (Exec.to_u64 y)) land m);
        go k c i
  | Uand (dst, a, b) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          (Array.unsafe_get ints a land Array.unsafe_get ints b);
        go k c i
  | Uor (dst, a, b) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          (Array.unsafe_get ints a lor Array.unsafe_get ints b);
        go k c i
  | Uxor (dst, a, b) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          (Array.unsafe_get ints a lxor Array.unsafe_get ints b);
        go k c i
  | Ushl (dst, a, b, w, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        Array.unsafe_set ints dst
          (if y < 0 || y >= w then 0
           else (Array.unsafe_get ints a lsl y) land m);
        go k c i
  | Ulshr (dst, a, b, w) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        Array.unsafe_set ints dst
          (if y < 0 || y >= w then 0 else Array.unsafe_get ints a lsr y);
        go k c i
  | Uashr (dst, a, b, w, sh, m) ->
      fun c ->
        let ints = c.ints in
        let y = Array.unsafe_get ints b in
        let s = if y < 0 || y >= w then w - 1 else y in
        Array.unsafe_set ints dst
          ((((Array.unsafe_get ints a lsl sh) asr sh) asr s) land m);
        go k c i
  | Uicmp (op, sh, dst, a, b) -> (
      (* sgt, sge, ugt and uge are slt, sle, ult and ule on swapped
         operands *)
      let op, a, b =
        if op = 4 || op = 5 || op = 8 || op = 9 then (op - 2, b, a)
        else (op, a, b)
      in
      match next with
      | Some (Ucbr (cnd, tpc, fpc)) when cnd = dst -> (
          let[@inline] br c ints r =
            Array.unsafe_set ints dst (if r then 1 else 0);
            exit_to c fidx (if r then tpc else fpc)
          in
          match op with
          | 0 ->
              fun c ->
                let ints = c.ints in
                br c ints (Array.unsafe_get ints a = Array.unsafe_get ints b)
          | 1 ->
              fun c ->
                let ints = c.ints in
                br c ints
                  (Array.unsafe_get ints a <> Array.unsafe_get ints b)
          | 2 ->
              fun c ->
                let ints = c.ints in
                br c ints
                  ((Array.unsafe_get ints a lsl sh) asr sh
                  < (Array.unsafe_get ints b lsl sh) asr sh)
          | 3 ->
              fun c ->
                let ints = c.ints in
                br c ints
                  ((Array.unsafe_get ints a lsl sh) asr sh
                  <= (Array.unsafe_get ints b lsl sh) asr sh)
          | 6 ->
              fun c ->
                let ints = c.ints in
                br c ints
                  (Array.unsafe_get ints a lxor min_int
                  < Array.unsafe_get ints b lxor min_int)
          | _ ->
              fun c ->
                let ints = c.ints in
                br c ints
                  (Array.unsafe_get ints a lxor min_int
                  <= Array.unsafe_get ints b lxor min_int))
      | _ -> (
          let[@inline] set ints r =
            Array.unsafe_set ints dst (if r then 1 else 0)
          in
          match op with
          | 0 ->
              fun c ->
                let ints = c.ints in
                set ints (Array.unsafe_get ints a = Array.unsafe_get ints b);
                go k c i
          | 1 ->
              fun c ->
                let ints = c.ints in
                set ints (Array.unsafe_get ints a <> Array.unsafe_get ints b);
                go k c i
          | 2 ->
              fun c ->
                let ints = c.ints in
                set ints
                  ((Array.unsafe_get ints a lsl sh) asr sh
                  < (Array.unsafe_get ints b lsl sh) asr sh);
                go k c i
          | 3 ->
              fun c ->
                let ints = c.ints in
                set ints
                  ((Array.unsafe_get ints a lsl sh) asr sh
                  <= (Array.unsafe_get ints b lsl sh) asr sh);
                go k c i
          | 6 ->
              fun c ->
                let ints = c.ints in
                set ints
                  (Array.unsafe_get ints a lxor min_int
                  < Array.unsafe_get ints b lxor min_int);
                go k c i
          | _ ->
              fun c ->
                let ints = c.ints in
                set ints
                  (Array.unsafe_get ints a lxor min_int
                  <= Array.unsafe_get ints b lxor min_int);
                go k c i))
  | Ufadd (dst, a, b) ->
      fun c ->
        let flts = c.flts in
        Array.unsafe_set flts dst
          (Array.unsafe_get flts a +. Array.unsafe_get flts b);
        go k c i
  | Ufsub (dst, a, b) ->
      fun c ->
        let flts = c.flts in
        Array.unsafe_set flts dst
          (Array.unsafe_get flts a -. Array.unsafe_get flts b);
        go k c i
  | Ufmul (dst, a, b) ->
      fun c ->
        let flts = c.flts in
        Array.unsafe_set flts dst
          (Array.unsafe_get flts a *. Array.unsafe_get flts b);
        go k c i
  | Ufdiv (dst, a, b) ->
      fun c ->
        let flts = c.flts in
        Array.unsafe_set flts dst
          (Array.unsafe_get flts a /. Array.unsafe_get flts b);
        go k c i
  | Ufcmp (op, dst, a, b) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        Array.unsafe_set ints dst
          (fcmp op (Array.unsafe_get flts a) (Array.unsafe_get flts b));
        go k c i
  | Usel_i (dst, cnd, a, b) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          (if Array.unsafe_get ints cnd <> 0 then Array.unsafe_get ints a
           else Array.unsafe_get ints b);
        go k c i
  | Usel_f (dst, cnd, a, b) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        Array.unsafe_set flts dst
          (if Array.unsafe_get ints cnd <> 0 then Array.unsafe_get flts a
           else Array.unsafe_get flts b);
        go k c i
  | Umask (dst, a, m) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst (Array.unsafe_get ints a land m);
        go k c i
  | Usext (dst, a, sh, m) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst
          (((Array.unsafe_get ints a lsl sh) asr sh) land m);
        go k c i
  | Ufptosi (dst, a, m) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        let x = Array.unsafe_get flts a in
        Array.unsafe_set ints dst
          (if Float.is_nan x || Float.abs x >= 4.611686018427387904e18 then 0
           else int_of_float x land m);
        go k c i
  | Usitofp (dst, a, sh) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        Array.unsafe_set flts dst
          (float_of_int ((Array.unsafe_get ints a lsl sh) asr sh));
        go k c i
  | Umov_i (dst, a) ->
      fun c ->
        let ints = c.ints in
        Array.unsafe_set ints dst (Array.unsafe_get ints a);
        go k c i
  | Umov_f (dst, a) ->
      fun c ->
        let flts = c.flts in
        Array.unsafe_set flts dst (Array.unsafe_get flts a);
        go k c i
  | Uload_i (dst, addr, w) ->
      fun c ->
        let ints = c.ints in
        (match
           Memory.read_int c.mem ~width:w ~addr:(Array.unsafe_get ints addr)
         with
        | v -> Array.unsafe_set ints dst v
        | exception Trap.Trap t -> trap c after t);
        go k c i
  | Uload_f (dst, addr) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        (match Memory.read_f64 c.mem ~addr:(Array.unsafe_get ints addr) with
        | v -> Array.unsafe_set flts dst v
        | exception Trap.Trap t -> trap c after t);
        go k c i
  | Urload_i (dst, addr, w) ->
      fun c ->
        let ints = c.ints in
        let a = Array.unsafe_get ints addr in
        (match Memory.read_int c.mem ~width:w ~addr:a with
        | v -> Array.unsafe_set ints dst v
        | exception Trap.Trap t -> trap c after t);
        Memory.note_read c.last_read ~width:w ~addr:a (c.dyn - 1 - after);
        go k c i
  | Urload_f (dst, addr) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        let a = Array.unsafe_get ints addr in
        (match Memory.read_f64 c.mem ~addr:a with
        | v -> Array.unsafe_set flts dst v
        | exception Trap.Trap t -> trap c after t);
        Memory.note_read c.last_read ~width:8 ~addr:a (c.dyn - 1 - after);
        go k c i
  | Ustore_i (v, addr, w) ->
      fun c ->
        let ints = c.ints in
        (match
           Memory.write_int c.mem ~width:w
             ~addr:(Array.unsafe_get ints addr)
             (Array.unsafe_get ints v)
         with
        | () -> ()
        | exception Trap.Trap t -> trap c after t);
        go k c i
  | Ustore_f (v, addr) ->
      fun c ->
        let ints = c.ints and flts = c.flts in
        (match
           Memory.write_f64 c.mem
             ~addr:(Array.unsafe_get ints addr)
             (Array.unsafe_get flts v)
         with
        | () -> ()
        | exception Trap.Trap t -> trap c after t);
        go k c i
  | Ugep (dst, base, index, scale) ->
      fun c ->
        let ints = c.ints in
        let idx =
          ((Array.unsafe_get ints index land 0xFFFFFFFF) lsl 31) asr 31
        in
        Array.unsafe_set ints dst
          ((Array.unsafe_get ints base + (idx * scale)) land 0xFFFFFFFF);
        go k c i
  | Ucall cr ->
      let callee = funcs.(cr.c_callee) in
      fun c ->
        let ints = c.ints and flts = c.flts and fr = c.fr in
        let depth = c.depth in
        if depth >= Exec.max_call_depth then trap c after Stack_overflow;
        let cframe = fresh_frame callee in
        for j = 0 to Array.length cr.c_args - 1 do
          if cr.c_arg_f.(j) then
            cframe.Exec.flts.(j) <- Array.unsafe_get flts cr.c_args.(j)
          else cframe.Exec.ints.(j) <- Array.unsafe_get ints cr.c_args.(j)
        done;
        if c.shadow then c.rstack <- (fidx, fr, i, c.dyn - 1) :: c.rstack;
        c.depth <- depth + 1;
        c.enter cr.c_callee cframe;
        c.depth <- depth;
        if c.shadow then c.rstack <- List.tl c.rstack;
        if cr.c_dst >= 0 then
          if cr.c_dst_f then Array.unsafe_set flts cr.c_dst c.ret_f
          else Array.unsafe_set ints cr.c_dst c.ret_i;
        i + 1
  | Ucall_b1 (dst, fn, a) ->
      fun c ->
        let flts = c.flts in
        let r = fn (Array.unsafe_get flts a) in
        if dst >= 0 then Array.unsafe_set flts dst r;
        go k c i
  | Ucall_b2 (dst, fn, a, b) ->
      fun c ->
        let flts = c.flts in
        let r = fn (Array.unsafe_get flts a) (Array.unsafe_get flts b) in
        if dst >= 0 then Array.unsafe_set flts dst r;
        go k c i
  | Uout_i (s, tag) ->
      fun c ->
        let ints = c.ints in
        let v = Array.unsafe_get ints s in
        (match tag with
        | 0 -> Buffer.add_uint8 c.out (v land 0xFF)
        | 1 -> Buffer.add_uint16_le c.out v
        | 2 -> Buffer.add_int32_le c.out (Int32.of_int v)
        | _ -> Buffer.add_int64_le c.out (Exec.to_u64 v));
        go k c i
  | Uout_f s ->
      fun c ->
        let flts = c.flts in
        Buffer.add_int64_le c.out
          (Int64.bits_of_float (Array.unsafe_get flts s));
        go k c i
  | Uguard_i (a, b) ->
      fun c ->
        let ints = c.ints in
        if Array.unsafe_get ints a <> Array.unsafe_get ints b then
          trap c after Guard_violation;
        go k c i
  | Uguard_f (a, b) ->
      fun c ->
        let flts = c.flts in
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Array.unsafe_get flts a))
               (Int64.bits_of_float (Array.unsafe_get flts b)))
        then trap c after Guard_violation;
        go k c i
  | Uabort -> fun c -> trap c after Abort_called
  | Ujmp p -> fun c -> exit_to c fidx p
  | Ucbr (cnd, tpc, fpc) ->
      fun c ->
        exit_to c fidx (if Array.unsafe_get c.ints cnd <> 0 then tpc else fpc)
  | Uret -> fun _ -> -1
  | Uret_i s ->
      fun c ->
        c.ret_i <- Array.unsafe_get c.ints s;
        -1
  | Uret_f s ->
      fun c ->
        c.ret_f <- Array.unsafe_get c.flts s;
        -1
  | Uinterp ins ->
      let calls_fn =
        match ins with
        | Call { callee; _ } -> (
            match Hashtbl.find_opt src.Program.targets callee with
            | Some (Program.Fn _) -> true
            | _ -> false)
        | _ -> false
      in
      if calls_fn then
        (* A patched call to a function is on the shadow stack, as a
           [Ucall] is; it ends its segment, so its dyn is [c.dyn - 1]. *)
        fun c ->
          let fr = c.fr in
          if c.shadow then c.rstack <- (fidx, fr, i, c.dyn - 1) :: c.rstack;
          Exec.step c.env fr ins;
          if c.shadow then c.rstack <- List.tl c.rstack;
          i + 1
      else fun c ->
        Exec.step c.env c.fr ins;
        i + 1
  | Uinterp_t tm ->
      let block_off = funcs.(fidx).block_off in
      let ret = src.Program.funcs.(fidx).ret in
      fun c ->
        let env = c.env in
        let b = Exec.branch env c.fr ~ret tm in
        if b >= 0 then block_off.(b)
        else begin
          c.ret_i <- env.ret_i;
          c.ret_f <- env.ret_f;
          -1
        end

(* (Re)build the closures and segment lengths of pcs [lo, hi), where the
   micro-op at [hi - 1] ends its segment, back to front so each chain
   links to its successor's closure. *)
let build_range funcs src fidx (cf : cfunc) lo hi =
  let e = ref hi in
  for i = hi - 1 downto lo do
    let u = cf.uops.(i) in
    if ends u then begin
      e := i + 1;
      let f = build funcs src fidx i u ~after:0 ~k:fall ~next:None in
      cf.chain.(i) <- f;
      cf.step.(i) <- f
    end
    else begin
      cf.chain.(i) <-
        build funcs src fidx i u ~after:(!e - i - 1) ~k:cf.chain.(i + 1)
          ~next:(Some cf.uops.(i + 1));
      cf.step.(i) <- build funcs src fidx i u ~after:0 ~k:fall ~next:None
    end;
    cf.seg.(i) <- !e - i
  done

let compile (p : Program.t) : t =
  let funcs = Array.map (compile_func p) p.funcs in
  (* Every block ends with a terminator, so no segment crosses one. *)
  Array.iteri
    (fun fidx cf -> build_range funcs p fidx cf 0 (Array.length cf.uops))
    funcs;
  {
    funcs;
    main = p.main;
    mem_template = p.mem_template;
    source = p;
    patched = false;
  }

(* ---- code-domain mutation ---- *)

(* A private copy whose micro-ops and closures may be patched.
   Everything else (flags, metas, inits, source) is immutable and
   shared, so a fork costs four array copies per function.  The
   workload's code stays pristine — forks are created per experiment and
   dropped. *)
let fork t =
  {
    t with
    funcs =
      Array.map
        (fun cf ->
          {
            cf with
            uops = Array.copy cf.uops;
            chain = Array.copy cf.chain;
            step = Array.copy cf.step;
            seg = Array.copy cf.seg;
          })
        t.funcs;
    patched = false;
  }

(* Install a mutated instruction (from Codeflip) at its site.  The site
   keeps its original flags/metas: candidate accounting and last_write
   bookkeeping follow the golden program structure while execution
   follows the flipped instruction, exactly like the seed interpreter
   running the mutated image (whose metas are also untouched).  The site
   now ends its segment, so the segment is rebuilt from its start up to
   the site; the pcs past it keep their chains. *)
let patch t ~fidx ~bidx ~idx p =
  let cf = t.funcs.(fidx) in
  let off = cf.block_off.(bidx) in
  let site = off + idx in
  t.patched <- true;
  cf.uops.(site) <-
    (match p with `Instr ins -> Uinterp ins | `Term tm -> Uinterp_t tm);
  let lo = ref site in
  while !lo > off && not (ends cf.uops.(!lo - 1)) do
    decr lo
  done;
  build_range t.funcs t.source fidx cf !lo (site + 1)

(* ---- execution ---- *)

(* A recording run's single-step closures: every load replaced by its
   twin, which also notes the page it read, so production loads pay
   nothing for the liveness. *)
let recording_steps t =
  Array.mapi
    (fun fidx cf ->
      Array.mapi
        (fun i f ->
          let twin u =
            build t.funcs t.source fidx i u ~after:0 ~k:fall ~next:None
          in
          match cf.uops.(i) with
          | Uload_i (dst, addr, w) -> twin (Urload_i (dst, addr, w))
          | Uload_f (dst, addr) -> twin (Urload_f (dst, addr))
          | _ -> f)
        cf.step)
    t.funcs

exception Hang_exn

(* Raised by the probe when a faulty run has rejoined the golden run,
   once it has set the counters and output to the run's end state. *)
exception Rejoined

(* ---- early exits ---- *)

(* Instructions the cycle exit searches past the golden run's length
   before it gives up.  Brent's search finds any period up to about a
   third of it; a hang that has not repeated by then (a counter that
   keeps moving) runs to the watchdog unprobed. *)
let cycle_window = 4096

(* Is [i] the start of a block other than the entry, where only a jump
   leads?  Every block ends with its terminator. *)
let jump_target uops i =
  i > 0
  &&
  match uops.(i - 1) with
  | Ujmp _ | Ucbr _ | Uret | Uret_i _ | Uret_f _ | Uabort -> true
  | _ -> false

(* How far in dyn from a golden point a run may stand and still be
   compared with it.  A run watches only the point nearest in dyn, so a
   window never reaches past the midpoint to the next point. *)
let rejoin_window = 512

(* Per exit kind, plain counters (one update per exit, not per
   instruction) so tests observe the exits without enabling metrics,
   mirrored by the Obs counters. *)
type exit_counters = {
  exits : int Atomic.t;
  skipped : int Atomic.t;
  m_exits : Obs.Metrics.counter;
  m_skipped : Obs.Metrics.counter;
}

let exit_counters kind =
  let labels = [ ("kind", kind) ] in
  {
    exits = Atomic.make 0;
    skipped = Atomic.make 0;
    m_exits = Obs.Metrics.counter ~labels "onebit_vm_early_exits_total";
    m_skipped =
      Obs.Metrics.counter ~labels "onebit_vm_instructions_skipped_total";
  }

let golden_exit = exit_counters "golden"
let shifted_exit = exit_counters "shifted"
let cycle_exit = exit_counters "cycle"

let note_exit c ~skipped =
  Atomic.incr c.exits;
  ignore (Atomic.fetch_and_add c.skipped skipped : int);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr c.m_exits;
    Obs.Metrics.add c.m_skipped skipped
  end

type exit_stats = {
  golden_exits : int;
  shifted_exits : int;
  cycle_exits : int;
  golden_skipped : int;
  shifted_skipped : int;
  cycle_skipped : int;
}

let exit_stats () =
  {
    golden_exits = Atomic.get golden_exit.exits;
    shifted_exits = Atomic.get shifted_exit.exits;
    cycle_exits = Atomic.get cycle_exit.exits;
    golden_skipped = Atomic.get golden_exit.skipped;
    shifted_skipped = Atomic.get shifted_exit.skipped;
    cycle_skipped = Atomic.get cycle_exit.skipped;
  }

(* Index of the first slot at which [a] and [b] (no shorter than [a])
   differ, or -1.  [a] is a frame snapshot, [b] a live frame of the same
   function: the snapshot holds the real registers, the frame those and
   the constant slots. *)
let first_diff (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go j =
    if j >= n then -1
    else if Array.unsafe_get a j = Array.unsafe_get b j then go (j + 1)
    else j
  in
  go 0

(* By bits: -0.0 <> 0.0, and NaN payloads are told apart.  [a] is a
   snapshot's float file, empty for a function without a float
   register. *)
let same_flts (a : float array) (b : float array) =
  let n = Array.length a in
  let rec go j =
    j >= n
    || Int64.bits_of_float (Array.unsafe_get a j)
       = Int64.bits_of_float (Array.unsafe_get b j)
       && go (j + 1)
  in
  go 0

(* Does a captured stack ([snaps], outermost first) equal the live one:
   the innermost [frame] at [fidx]/[pc] plus the shadow stack [outer]
   (innermost first)?  In-progress calls' dynamic indexes are not
   compared: they only feed [last_write], which nothing reads once the
   injector is done.  A snapshot keeps only what a run can change (see
   [snapshot_stack]), so the kept prefix is the whole comparison. *)
let same_stack (snaps : Checkpoint.frame_snap array) fidx
    (frame : Exec.frame) pc outer =
  let top = Array.length snaps - 1 in
  let same (s : Checkpoint.frame_snap) f (fr : Exec.frame) =
    s.fs_fidx = f
    && first_diff s.fs_ints fr.Exec.ints < 0
    && same_flts s.fs_flts fr.Exec.flts
  in
  let rec outers k = function
    | [] -> k < 0
    | (f, fr, pc, _) :: rest ->
        k >= 0 && snaps.(k).fs_pc = pc && same snaps.(k) f fr
        && outers (k - 1) rest
  in
  top >= 0 && snaps.(top).fs_pc = pc && same snaps.(top) fidx frame
  && outers (top - 1) outer

(* The cycle exit's reference state: the stack and dirty pages at one
   instruction, with the dyn and output length to measure a period
   against. *)
type anchor = {
  a_stack : Checkpoint.frame_snap array;
  a_pages : (int * bytes) array;
  a_dyn : int;
  a_out : int;
}

(* Shared placeholder for eventless runs; its thresholds are never read
   because the watch flags are false, and it is never mutated. *)
let no_events =
  {
    watch = `Read;
    ev_cand = max_int;
    ev_dyn = max_int;
    handle = (fun ~dyn:_ ~cand:_ _ _ -> ());
  }

(* The runner behind [run] and [resume]: a counting loop and a quiet
   runner over the compiled closures.

   Recording ([record]): a golden run counts throughout, additionally
   maintains a shadow call stack and, at the first jump target at the
   top of the loop after a candidate-ordinal counter crosses the
   recorder's threshold, captures
   a {!Checkpoint.point} — before the instruction's dyn increment and
   candidate blocks, so the point is valid for both the read and the
   write ordinal axis, and at a pc the rejoin probe can watch from the
   jumps alone.

   Resuming ([resume]): counters, output and memory pages are restored
   from the point, then the captured call stack is re-entered outermost
   first: each outer frame's in-progress [Ucall] is completed exactly as
   the original iteration would have (return-value assignment, then the
   call's write-candidate post-block using the call's own dynamic index)
   before that frame continues at the following pc, on the quiet runner
   once the run is quiet.  [c.ret_i]/[c.ret_f] are dead between
   instructions, so zero-initialising them is exact. *)
let run_internal ?events ?record ?mem ?resume ?orig ?exits ~budget
    (code : t) =
  let rec_on = Option.is_some record in
  (* A recording run is the golden run itself, so it arms no exit. *)
  let exits =
    match exits with
    | Some (set : Checkpoint.set)
      when set.golden.Exec.status = Exec.Finished && not rec_on ->
        exits
    | _ -> None
  in
  let exits_on = Option.is_some exits in
  let mem =
    match mem with Some m -> m | None -> Memory.clone code.mem_template
  in
  let funcs = code.funcs in
  let out = Buffer.create 256 in
  let rec c =
    {
      dyn = 0;
      rc = 0;
      wc = 0;
      ret_i = 0;
      ret_f = 0.0;
      limit = budget;
      watch_pc = -1;
      fr = { Exec.ints = [||]; flts = [||]; reg_ty = [||]; last_write = [||] };
      ints = [||];
      flts = [||];
      depth = 0;
      rstack = [];
      shadow = rec_on || exits_on;
      mem;
      out;
      last_read = (if rec_on then Array.make (Memory.pages mem) (-1) else [||]);
      enter = (fun _ _ -> ());
      jumped = (fun _ _ _ -> ());
      env =
        {
          Exec.prog = code.source;
          mem;
          out;
          fresh = (fun fidx -> fresh_frame funcs.(fidx));
          call =
            (fun fidx frame ->
              let depth = c.depth in
              if depth >= Exec.max_call_depth then
                raise (Trap.Trap Stack_overflow);
              c.depth <- depth + 1;
              c.enter fidx frame;
              c.depth <- depth;
              c.env.ret_i <- c.ret_i;
              c.env.ret_f <- c.ret_f);
          ret_i = 0;
          ret_f = 0.0;
        };
    }
  in
  (match resume with
  | Some (p : Checkpoint.point) ->
      Buffer.add_string out p.ck_out;
      c.dyn <- p.ck_dyn;
      c.rc <- p.ck_rc;
      c.wc <- p.ck_wc
  | None -> ());
  let watch_read, watch_write, watch_dyn, ev =
    match events with
    | Some e -> (e.watch = `Read, e.watch = `Write, e.watch = `Dyn, e)
    | None -> (false, false, false, no_events)
  in
  let recd =
    match record with Some r -> r | None -> Checkpoint.null_recorder
  in
  let rsteps = if rec_on then recording_steps code else [||] in
  (* A frame snapshot keeps what a run can change: the real registers,
     never the constant slots (a code flip that names a register past
     them is an illegal instruction), and no float file for a function
     without a float register.  [rebuild] puts the rest back from the
     function's initial frame. *)
  let snapshot_stack fidx (frame : Exec.frame) i =
    let snap_of (fidx, (fr : Exec.frame), pc, calld) =
      let cf = Array.unsafe_get funcs fidx in
      let nregs = Array.length cf.reg_ty in
      {
        Checkpoint.fs_fidx = fidx;
        fs_pc = pc;
        fs_call_dyn = calld;
        fs_ints = Array.sub fr.Exec.ints 0 nregs;
        fs_flts =
          (if cf.has_flt then Array.sub fr.Exec.flts 0 nregs else [||]);
        fs_lw = Array.copy fr.Exec.last_write;
      }
    in
    Array.of_list (List.rev_map snap_of ((fidx, frame, i, 0) :: c.rstack))
  in
  let capture fidx frame i =
    let prev =
      match recd.Checkpoint.rev_points with
      | p :: _ -> p.Checkpoint.ck_pages
      | [] -> [||]
    in
    Checkpoint.add recd
      {
        Checkpoint.ck_dyn = c.dyn;
        ck_rc = c.rc;
        ck_wc = c.wc;
        ck_out = Buffer.contents out;
        ck_stack = snapshot_stack fidx frame i;
        ck_pages = Memory.snapshot_pages mem ~prev;
      }
  in
  (* ---- the early-exit probe ----

     Armed once the injector has nothing pending.  Golden phase: the run
     watches the pc of one golden point, the one nearest in dyn, while it
     is within [rejoin_window] of it; points sit at jump targets, so the
     jumps alone compare their target with it.  Standing there with the
     point's stack and with its memory on every page the golden suffix
     still reads, the run's future is the golden run's from the point,
     shifted by [delta] instructions: it finishes with its own output
     followed by the golden output from the point on.  Cycle phase, past
     the last window and the golden run's length: a run whose state
     repeats exactly repeats forever, so whole periods are added
     arithmetically and the remainder runs to the watchdog. *)
  let next_point = ref 0 and miss = ref 0 in
  let anchor = ref None and lam = ref 0 and power = ref 1 in
  let cycle_end = ref max_int in
  let probe_at d = c.limit <- min d budget in
  let start_cycle (set : Checkpoint.set) =
    next_point := Array.length set.points;
    c.watch_pc <- -1;
    probe_at (max c.dyn set.golden.Exec.dyn_count)
  in
  (* Watch the first point from [k] on whose window has not ended: its pc
     from the window's start, until the window's end.  A window holds the
     dyns within [rejoin_window] of its point that are nearer to it than
     to either neighbour (ties to the earlier point). *)
  let rec watch_from (set : Checkpoint.set) k =
    let pts = set.points in
    let n = Array.length pts in
    let split j = ((pts.(j).Checkpoint.ck_dyn + pts.(j + 1).ck_dyn) / 2) + 1 in
    if k >= n then start_cycle set
    else begin
      let p = pts.(k) in
      let hi = p.ck_dyn + rejoin_window + 1 in
      let hi = if k + 1 < n then min hi (split k) else hi in
      if c.dyn >= hi then watch_from set (k + 1)
      else begin
        let lo = p.ck_dyn - rejoin_window in
        let lo = if k > 0 then max lo (split (k - 1)) else lo in
        next_point := k;
        if c.dyn >= lo then begin
          c.watch_pc <- p.ck_stack.(Array.length p.ck_stack - 1).fs_pc;
          probe_at hi
        end
        else begin
          c.watch_pc <- -1;
          probe_at lo
        end
      end
    end
  in
  (* The golden exit needs the program the golden run ran: a patched
     instruction outlives the last flip. *)
  let arm (set : Checkpoint.set) =
    let pts = set.points in
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if pts.(mid).Checkpoint.ck_dyn < c.dyn then first (mid + 1) hi
        else first lo mid
    in
    if code.patched then start_cycle set
    else watch_from set (max 0 (first 0 (Array.length pts) - 1))
  in
  (* After a jump to the watched pc [i], in the state the next
     instruction sees there.  The full run would finish [delta] instructions
     after the golden run, so only within the budget (which also keeps a
     run at the watchdog from rejoining: the golden run executes the
     point's instruction).  Failing visits are kept cheap, since skipping
     one forgoes at most an exit: the innermost register that differed
     last time is compared first (in a loop, usually the counter), and a
     point whose live memory differed is not compared again. *)
  let probe_point (set : Checkpoint.set) fidx (frame : Exec.frame) i =
    let k = !next_point in
    let p = set.points.(k) and g = set.golden in
    let delta = c.dyn - p.ck_dyn in
    let top = p.ck_stack.(Array.length p.ck_stack - 1) in
    let ints = frame.Exec.ints and m = !miss in
    if
      fidx = top.fs_fidx
      && g.Exec.dyn_count + delta <= budget
      && (m >= Array.length top.fs_ints
         || Array.unsafe_get ints m = Array.unsafe_get top.fs_ints m)
      && (match first_diff top.fs_ints ints with
         | -1 -> true
         | j ->
             miss := j;
             false)
      && same_stack p.ck_stack fidx frame i c.rstack
    then
      if
        Memory.equal_image mem p.ck_pages ~live:(fun pg ->
            set.last_read.(pg) >= p.ck_dyn)
      then begin
        note_exit
          (if delta = 0 then golden_exit else shifted_exit)
          ~skipped:(g.dyn_count - p.ck_dyn);
        let n = String.length p.ck_out in
        Buffer.add_substring out g.output n (String.length g.output - n);
        c.dyn <- g.dyn_count + delta;
        raise Rejoined
      end
      else watch_from set (k + 1)
  in
  (match exits with
  | Some set -> c.jumped <- probe_point set
  | None -> ());
  (* An anchor lives only until the next power of two, so its page
     copies are young garbage: it copies afresh rather than compare each
     page with the previous anchor's. *)
  let take_anchor fidx frame i =
    anchor :=
      Some
        {
          a_stack = snapshot_stack fidx frame i;
          a_pages = Memory.snapshot_pages mem ~prev:[||];
          a_dyn = c.dyn;
          a_out = Buffer.length out;
        };
    lam := 0
  in
  (* Whole periods fit while every skipped instruction stays below the
     budget; the remainder then runs, and the watchdog fires at exactly
     the dyn a full run would reach. *)
  let fast_forward a =
    let period = c.dyn - a.a_dyn in
    let k = (budget - c.dyn) / period in
    if k > 0 then begin
      let chunk = Buffer.sub out a.a_out (Buffer.length out - a.a_out) in
      if chunk <> "" then
        for _ = 1 to k do
          Buffer.add_string out chunk
        done;
      c.dyn <- c.dyn + (k * period);
      note_exit cycle_exit ~skipped:(k * period)
    end;
    c.limit <- budget
  in
  (* Brent's search: compare against an anchor that moves to the current
     state whenever the steps since it reach the next power of two. *)
  let cycle_step fidx frame i =
    match !anchor with
    | None ->
        cycle_end := c.dyn + cycle_window;
        take_anchor fidx frame i
    | Some _ when c.dyn >= !cycle_end -> c.limit <- budget
    | Some a ->
        incr lam;
        if
          same_stack a.a_stack fidx frame i c.rstack
          && Memory.equal_image mem a.a_pages ~live:(fun _ -> true)
        then fast_forward a
        else if !lam = !power then begin
          power := 2 * !power;
          take_anchor fidx frame i
        end
  in
  (* The top of an instruction past [c.limit]: move the watch or search
     for a cycle while below the budget, then the watchdog, at the dyn
     the probe may have moved.  Returns the dyn of the instruction about
     to execute. *)
  let slow_top fidx frame i d =
    (match exits with
    | Some set when d < budget ->
        if !next_point < Array.length set.points then
          watch_from set !next_point
        else cycle_step fidx frame i
    | _ -> ());
    let d = c.dyn in
    if d >= budget then begin
      c.dyn <- d + 1;
      raise Hang_exn
    end;
    d
  in
  (* Quiet: nothing reads the candidate ordinals, [last_write] or the
     events again, because the run records nothing and the injector has
     nothing pending.  Monotone: the injector never schedules again once
     both thresholds are [max_int].  Only the injector's slow path moves
     them, so [counting] is refreshed there alone. *)
  let quiet () =
    (not rec_on) && ev.ev_cand = max_int && ev.ev_dyn = max_int
  in
  let counting = ref (not (quiet ())) in
  (* The exits arm once the run is quiet: at the start of an eventless
     run, else after the injector's last event. *)
  let arm_when_done () =
    match exits with Some set when quiet () -> arm set | _ -> ()
  in
  let handle ~dyn ~cand frame meta =
    ev.handle ~dyn ~cand frame meta;
    arm_when_done ();
    counting := not (quiet ())
  in
  (* The quiet runner: a segment whose instructions all sit below
     [c.limit] runs as its chain, with one dyn update; one that reaches
     it single-steps, through the probe's stops and the watchdog. *)
  let exec_quiet fidx (frame : Exec.frame) ~start =
    let cf = Array.unsafe_get funcs fidx in
    let chain = cf.chain and step = cf.step and seg = cf.seg in
    c.fr <- frame;
    c.ints <- frame.Exec.ints;
    c.flts <- frame.Exec.flts;
    let pc = ref start in
    while !pc >= 0 do
      let i = !pc in
      let d = c.dyn in
      let e = d + Array.unsafe_get seg i in
      if e <= c.limit then begin
        c.dyn <- e;
        pc := (Array.unsafe_get chain i) c
      end
      else begin
        let d = if d >= c.limit then slow_top fidx frame i d else d in
        c.dyn <- d + 1;
        pc := (Array.unsafe_get step i) c
      end
    done
  in
  (* The counting loop single-steps, keeping candidate ordinals,
     [last_write], the injector's events and the recorder's captures.  A
     frame whose run goes quiet (at an event, or in a call it made)
     finishes the instruction, then runs the rest of the frame quiet. *)
  let exec_count fidx (frame : Exec.frame) ~start =
    let cf = Array.unsafe_get funcs fidx in
    let step = if rec_on then Array.unsafe_get rsteps fidx else cf.step in
    let uops = cf.uops and flags = cf.flags and metas = cf.metas in
    let lw = frame.Exec.last_write in
    c.fr <- frame;
    c.ints <- frame.Exec.ints;
    c.flts <- frame.Exec.flts;
    let pc = ref start in
    while !pc >= 0 && !counting do
      let i = !pc in
      if rec_on
         && (c.rc >= recd.Checkpoint.next_rc
            || c.wc >= recd.Checkpoint.next_wc)
         && jump_target uops i
      then capture fidx frame i;
      let d =
        let d = c.dyn in
        if d >= c.limit then slow_top fidx frame i d else d
      in
      c.dyn <- d + 1;
      if watch_dyn && d >= ev.ev_dyn then
        handle ~dyn:d ~cand:(-1) frame (Array.unsafe_get metas i);
      let fl = Array.unsafe_get flags i in
      if fl land 1 <> 0 then begin
        let n = c.rc in
        c.rc <- n + 1;
        if watch_read && (n >= ev.ev_cand || d >= ev.ev_dyn) then
          handle ~dyn:d ~cand:n frame (Array.unsafe_get metas i)
      end;
      pc := (Array.unsafe_get step i) c;
      (* Returns write no register, so this never follows a return. *)
      if fl land 2 <> 0 then begin
        let n = c.wc in
        c.wc <- n + 1;
        Array.unsafe_set lw ((fl lsr 2) - 1) d;
        if watch_write && (n >= ev.ev_cand || d >= ev.ev_dyn) then
          handle ~dyn:d ~cand:n frame (Array.unsafe_get metas i)
      end
    done;
    if !pc >= 0 then exec_quiet fidx frame ~start:!pc
  in
  let exec_fn fidx frame ~start =
    if !counting then exec_count fidx frame ~start
    else exec_quiet fidx frame ~start
  in
  c.enter <-
    (fun fidx frame ->
      let fr = c.fr and ints = c.ints and flts = c.flts in
      exec_fn fidx frame ~start:0;
      c.fr <- fr;
      c.ints <- ints;
      c.flts <- flts);
  (* Complete an outer frame's in-progress call exactly as the original
     Ucall iteration would have after its callee returned: assign the
     return value, then run the call's write-candidate post-block with
     the call's own dynamic index [calld].  The iteration's budget check
     and read-candidate pre-block already happened in the prefix.  The
     call record is read from the PRISTINE code ([orig], when given):
     checkpoints capture pre-flip prefixes, and non-checkpoint execution
     on both backends destructures the call record at dispatch, so an
     in-flight call completes with its original destination even if a
     stored-program flip later patches that slot. *)
  let orig_funcs =
    match orig with Some (o : t) -> o.funcs | None -> funcs
  in
  let complete_call fidx (frame : Exec.frame) i calld =
    let cf = funcs.(fidx) in
    (match orig_funcs.(fidx).uops.(i) with
    | Ucall cr ->
        if cr.c_dst >= 0 then
          if cr.c_dst_f then frame.Exec.flts.(cr.c_dst) <- c.ret_f
          else frame.Exec.ints.(cr.c_dst) <- c.ret_i
    | _ -> assert false);
    let fl = cf.flags.(i) in
    if fl land 2 <> 0 then begin
      let n = c.wc in
      c.wc <- n + 1;
      frame.Exec.last_write.((fl lsr 2) - 1) <- calld;
      if watch_write && (n >= ev.ev_cand || calld >= ev.ev_dyn) then
        handle ~dyn:calld ~cand:n frame cf.metas.(i)
    end
  in
  let rebuild (s : Checkpoint.frame_snap) =
    let fr = fresh_frame funcs.(s.fs_fidx) in
    Array.blit s.fs_ints 0 fr.Exec.ints 0 (Array.length s.fs_ints);
    Array.blit s.fs_flts 0 fr.Exec.flts 0 (Array.length s.fs_flts);
    Array.blit s.fs_lw 0 fr.Exec.last_write 0 (Array.length s.fs_lw);
    fr
  in
  (* Re-enter the captured stack: the innermost frame runs to completion
     first, then each outer frame completes its call and continues. *)
  let rec resume_stack snaps depth =
    match snaps with
    | [] -> assert false
    | [ (inner : Checkpoint.frame_snap) ] ->
        c.depth <- depth;
        exec_fn inner.fs_fidx (rebuild inner) ~start:inner.fs_pc
    | (outer : Checkpoint.frame_snap) :: rest ->
        let frame = rebuild outer in
        if c.shadow then
          c.rstack <-
            (outer.fs_fidx, frame, outer.fs_pc, outer.fs_call_dyn) :: c.rstack;
        resume_stack rest (depth + 1);
        if c.shadow then c.rstack <- List.tl c.rstack;
        complete_call outer.fs_fidx frame outer.fs_pc outer.fs_call_dyn;
        c.depth <- depth;
        exec_fn outer.fs_fidx frame ~start:(outer.fs_pc + 1)
  in
  arm_when_done ();
  let ended status =
    {
      Exec.status;
      output = Buffer.contents out;
      dyn_count = c.dyn;
    }
  in
  let result =
    match
      match resume with
      | Some p -> resume_stack (Array.to_list p.Checkpoint.ck_stack) 0
      | None -> exec_fn code.main (fresh_frame funcs.(code.main)) ~start:0
    with
    | () -> ended Exec.Finished
    | exception Trap.Trap t -> ended (Exec.Trapped t)
    | exception Hang_exn -> ended Exec.Hung
    | exception Rejoined -> ended Exec.Finished
  in
  if rec_on then
    Checkpoint.complete recd ~last_read:c.last_read ~read_cands:c.rc
      ~write_cands:c.wc result;
  Exec.record_run result;
  result

let run ?events ?record ?mem ?exits ~budget code =
  run_internal ?events ?record ?mem ?exits ~budget code

let resume ~events ~mem ~(point : Checkpoint.point) ?orig ?exits ~budget code
    =
  Checkpoint.note_restore point;
  Memory.restore_pages mem point.ck_pages;
  run_internal ~events ~mem ~resume:point ?orig ?exits ~budget code
