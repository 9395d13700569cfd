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

   [run] is an event-driven loop with two instantiations of one body.
   The counting loop keeps candidate ordinals and [last_write], and
   enters the hooked slow path (the fault injector) only when a
   scheduled event threshold is crossed; recording runs and faulty runs
   up to their last flip use it.  The quiet loop, which runs everything
   else, pays the budget compare and the dispatch per instruction.
   After the final flip, a run given the golden checkpoint set leaves
   it only at the early-exit probe's stops, which share the budget
   compare, and at jumps to one watched pc: the probe finishes the run
   as the golden run finishes once it has rejoined the golden run, at
   any dyn and past any output, and fast-forwards a hang whose state
   repeats exactly to the watchdog.

   The decode is behaviour-preserving by construction: every micro-op's
   semantics is the specialisation of the corresponding [Exec.step] case
   with the operand resolution and type dispatch hoisted to decode time.
   The differential suite (test/suite_vm_code.ml) and the CI pipeline
   smoke hold the two backends bit-identical. *)

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
  (* Generic fallback uops holding a (possibly bit-flipped) source
     instruction, installed by [patch] when the code domain mutates a
     site of a forked copy.  They interpret the IR instruction directly
     against the frame — semantics shared with the seed interpreter via
     the Exec.exec_* helpers, so a flipped instruction means exactly the
     same thing on both backends.  Slow, but a code-domain experiment
     executes at most [max_mbf] of them per dynamic occurrence. *)
  | Uinterp of Ir.Instr.t
  | Uinterp_t of Ir.Instr.terminator

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
  }

let compile (p : Program.t) : t =
  {
    funcs = Array.map (compile_func p) p.funcs;
    main = p.main;
    mem_template = p.mem_template;
    source = p;
    patched = false;
  }

(* ---- code-domain mutation ---- *)

(* A private copy whose uop arrays may be patched.  Everything else
   (flags, metas, inits, source) is immutable and shared, so a fork
   costs one array copy per function.  The workload's code stays
   pristine — forks are created per experiment and dropped. *)
let fork t =
  {
    t with
    funcs = Array.map (fun cf -> { cf with uops = Array.copy cf.uops }) t.funcs;
    patched = false;
  }

(* Install a mutated instruction (from Codeflip) at its site.  The site
   keeps its original flags/metas: candidate accounting and last_write
   bookkeeping follow the golden program structure while execution
   follows the flipped instruction, exactly like the seed interpreter
   running the mutated image (whose metas are also untouched). *)
let patch t ~fidx ~bidx ~idx p =
  let cf = t.funcs.(fidx) in
  let off = cf.block_off.(bidx) + idx in
  t.patched <- true;
  cf.uops.(off) <-
    (match p with `Instr ins -> Uinterp ins | `Term tm -> Uinterp_t tm)

(* ---- execution ---- *)

(* The functions with every load replaced by its recording twin. *)
let recording_funcs t =
  Array.map
    (fun cf ->
      {
        cf with
        uops =
          Array.map
            (function
              | Uload_i (dst, addr, w) -> Urload_i (dst, addr, w)
              | Uload_f (dst, addr) -> Urload_f (dst, addr)
              | u -> u)
            cf.uops;
      })
    t.funcs

exception Hang_exn

(* Raised by the probe when a faulty run has rejoined the golden run,
   once it has set the counters and output to the run's end state. *)
exception Rejoined

type rstate = {
  mutable dyn : int;
  mutable rc : int;
  mutable wc : int;
  mutable ret_i : int;
  mutable ret_f : float;
  mutable limit : int;
      (* the top of the loop leaves its fast path once [dyn] reaches
         this: the budget, or the early-exit probe's next stop if sooner *)
  mutable watch_pc : int;
      (* a jump to this pc probes the golden point the probe watches;
         -1 (no pc) when it watches none *)
}

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

let to_u64 v = Int64.logand (Int64.of_int v) 0x7FFFFFFFFFFFFFFFL

(* Operand reads for the generic [Uinterp] path.  Register slots 0..nregs-1
   of a compiled frame hold exactly the seed interpreter's register values
   (the backends' core bit-identity invariant), so reading a flipped
   register index out of them matches the seed run on the mutated image. *)
let igeti (frame : Exec.frame) (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg r -> frame.Exec.ints.(r)
  | Imm n -> n
  | FImm _ | Glob _ -> assert false (* canonicalised; flips preserve kind *)

let igetf (frame : Exec.frame) (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg r -> frame.Exec.flts.(r)
  | FImm x -> x
  | Imm _ | Glob _ -> assert false

(* The interpreter behind [run] and [resume]: one loop body, counting
   and quiet ([loop] below).

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
   before that frame continues at the following pc, on the quiet loop
   once the run is quiet.  [st.ret_i]/[st.ret_f] are dead at the top of
   the loop, so zero-initialising them is exact. *)
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
    match mem with
    | Some m -> m
    | None ->
        if rec_on || exits_on then Memory.with_undo code.mem_template
        else Memory.clone code.mem_template
  in
  if exits_on && not (Memory.tracks_undo mem) then
    invalid_arg "Code.run: early exits need an undo-tracking memory";
  let out = Buffer.create 256 in
  let st =
    {
      dyn = 0;
      rc = 0;
      wc = 0;
      ret_i = 0;
      ret_f = 0.0;
      limit = budget;
      watch_pc = -1;
    }
  in
  (match resume with
  | Some (p : Checkpoint.point) ->
      Buffer.add_string out p.ck_out;
      st.dyn <- p.ck_dyn;
      st.rc <- p.ck_rc;
      st.wc <- p.ck_wc
  | None -> ());
  let watch_read, watch_write, watch_dyn, ev =
    match events with
    | Some e -> (e.watch = `Read, e.watch = `Write, e.watch = `Dyn, e)
    | None -> (false, false, false, no_events)
  in
  let recd =
    match record with Some r -> r | None -> Checkpoint.null_recorder
  in
  (* Per memory page, the last dyn at which a recording run loads from
     it: the golden-rejoin exit's page liveness. *)
  let last_read =
    if rec_on then Array.make (Memory.pages mem) (-1) else [||]
  in
  (* Shadow call stack, innermost first: (fidx, frame, call pc, call dyn)
     of every in-progress call, Ucall or a patched call interpreted by
     [interp_step] alike, so its length is always the current depth.
     Maintained when recording and when the exits may arm. *)
  let shadow = rec_on || exits_on in
  let rstack : (int * Exec.frame * int * int) list ref = ref [] in
  let funcs = if rec_on then recording_funcs code else code.funcs in
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
    Array.of_list (List.rev_map snap_of ((fidx, frame, i, 0) :: !rstack))
  in
  let capture fidx frame i =
    let prev =
      match recd.Checkpoint.rev_points with
      | p :: _ -> p.Checkpoint.ck_pages
      | [] -> [||]
    in
    Checkpoint.add recd
      {
        Checkpoint.ck_dyn = st.dyn;
        ck_rc = st.rc;
        ck_wc = st.wc;
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
  let probe_at d = st.limit <- min d budget in
  let start_cycle (set : Checkpoint.set) =
    next_point := Array.length set.points;
    st.watch_pc <- -1;
    probe_at (max st.dyn set.golden.Exec.dyn_count)
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
      if st.dyn >= hi then watch_from set (k + 1)
      else begin
        let lo = p.ck_dyn - rejoin_window in
        let lo = if k > 0 then max lo (split (k - 1)) else lo in
        next_point := k;
        if st.dyn >= lo then begin
          st.watch_pc <- p.ck_stack.(Array.length p.ck_stack - 1).fs_pc;
          probe_at hi
        end
        else begin
          st.watch_pc <- -1;
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
        if pts.(mid).Checkpoint.ck_dyn < st.dyn then first (mid + 1) hi
        else first lo mid
    in
    if code.patched then start_cycle set
    else watch_from set (max 0 (first 0 (Array.length pts) - 1))
  in
  (* After a jump to the watched pc [i], in the state the top of the
     loop will see there.  The full run would finish [delta] instructions
     after the golden run, so only within the budget (which also keeps a
     run at the watchdog from rejoining: the golden run executes the
     point's instruction).  Failing visits are kept cheap, since skipping
     one forgoes at most an exit: the innermost register that differed
     last time is compared first (in a loop, usually the counter), and a
     point whose live memory differed is not compared again. *)
  let probe_point (set : Checkpoint.set) fidx (frame : Exec.frame) i =
    let k = !next_point in
    let p = set.points.(k) and g = set.golden in
    let delta = st.dyn - p.ck_dyn in
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
      && same_stack p.ck_stack fidx frame i !rstack
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
        st.dyn <- g.dyn_count + delta;
        raise Rejoined
      end
      else watch_from set (k + 1)
  in
  let jumped fidx frame i =
    match exits with Some set -> probe_point set fidx frame i | None -> ()
  in
  (* An anchor lives only until the next power of two, so its page
     copies are young garbage: it copies afresh rather than compare each
     page with the previous anchor's. *)
  let take_anchor fidx frame i =
    anchor :=
      Some
        {
          a_stack = snapshot_stack fidx frame i;
          a_pages = Memory.snapshot_pages mem ~prev:[||];
          a_dyn = st.dyn;
          a_out = Buffer.length out;
        };
    lam := 0
  in
  (* Whole periods fit while every skipped instruction stays below the
     budget; the remainder then runs, and the watchdog fires at exactly
     the dyn a full run would reach. *)
  let fast_forward a =
    let period = st.dyn - a.a_dyn in
    let k = (budget - st.dyn) / period in
    if k > 0 then begin
      let chunk = Buffer.sub out a.a_out (Buffer.length out - a.a_out) in
      if chunk <> "" then
        for _ = 1 to k do
          Buffer.add_string out chunk
        done;
      st.dyn <- st.dyn + (k * period);
      note_exit cycle_exit ~skipped:(k * period)
    end;
    st.limit <- budget
  in
  (* Brent's search: compare against an anchor that moves to the current
     state whenever the steps since it reach the next power of two. *)
  let cycle_step fidx frame i =
    match !anchor with
    | None ->
        cycle_end := st.dyn + cycle_window;
        take_anchor fidx frame i
    | Some _ when st.dyn >= !cycle_end -> st.limit <- budget
    | Some a ->
        incr lam;
        if
          same_stack a.a_stack fidx frame i !rstack
          && Memory.equal_image mem a.a_pages ~live:(fun _ -> true)
        then fast_forward a
        else if !lam = !power then begin
          power := 2 * !power;
          take_anchor fidx frame i
        end
  in
  (* The top of the loop past [st.limit]: move the watch or search for a
     cycle while below the budget, then the watchdog, at the dyn the
     probe may have moved.  Returns the dyn of the instruction about to
     execute. *)
  let slow_top fidx frame i d =
    (match exits with
    | Some set when d < budget ->
        if !next_point < Array.length set.points then
          watch_from set !next_point
        else cycle_step fidx frame i
    | _ -> ());
    let d = st.dyn in
    if d >= budget then begin
      st.dyn <- d + 1;
      raise Hang_exn
    end;
    d
  in
  (* Quiet: nothing reads the candidate ordinals, [last_write] or the
     events again, because the run records nothing and the injector has
     nothing pending.  Monotone: the injector never schedules again once
     both thresholds are [max_int]. *)
  let quiet () =
    (not rec_on) && ev.ev_cand = max_int && ev.ev_dyn = max_int
  in
  (* The exits arm once the run is quiet: at the start of an eventless
     run, else after the injector's last event. *)
  let arm_when_done () =
    match exits with Some set when quiet () -> arm set | _ -> ()
  in
  (* The injector's slow path; true once the run has gone quiet. *)
  let handle ~dyn ~cand frame meta =
    ev.handle ~dyn ~cand frame meta;
    arm_when_done ();
    quiet ()
  in
  (* The one loop body, instantiated twice below with a literal
     [counting]: [exec_fn] counts (candidate ordinals, [last_write], the
     injector's events, the recorder's captures), [exec_quiet] does only
     the budget compare and the dispatch, keeping the probe's watched
     jumps and shadow stack.  A counting frame whose run goes quiet (at
     an event, or in a call it made) finishes the iteration, then
     [handover] runs the rest of the frame from the next pc.  [enter]
     runs a callee and [interp] a patched instruction.  Defined outside
     the recursive group, so it is inlined there and [counting] folds
     away. *)
  let[@inline always] loop ~counting ~enter ~handover ~interp fidx
      (frame : Exec.frame) depth ~start =
    let cf = Array.unsafe_get funcs fidx in
    let uops = cf.uops and flags = cf.flags and metas = cf.metas in
    let ints = frame.Exec.ints
    and flts = frame.Exec.flts
    and lw = frame.Exec.last_write in
    let pc = ref start in
    (* 0 while running, 1 once the frame has returned, 2 once its run has
       gone quiet (counting only) *)
    let state = ref 0 in
    while !state = 0 do
      let i = !pc in
      if counting && rec_on
         && (st.rc >= recd.Checkpoint.next_rc
            || st.wc >= recd.Checkpoint.next_wc)
         && jump_target uops i
      then capture fidx frame i;
      let d =
        let d = st.dyn in
        if d >= st.limit then slow_top fidx frame i d else d
      in
      st.dyn <- d + 1;
      let fl =
        if counting then begin
          if watch_dyn && d >= ev.ev_dyn
             && handle ~dyn:d ~cand:(-1) frame (Array.unsafe_get metas i)
          then state := 2;
          let fl = Array.unsafe_get flags i in
          if fl land 1 <> 0 then begin
            let c = st.rc in
            st.rc <- c + 1;
            if watch_read
               && (c >= ev.ev_cand || d >= ev.ev_dyn)
               && handle ~dyn:d ~cand:c frame (Array.unsafe_get metas i)
            then state := 2
          end;
          fl
        end
        else 0
      in
      (match Array.unsafe_get uops i with
      | Uadd (dst, a, b, m) ->
          Array.unsafe_set ints dst
            ((Array.unsafe_get ints a + Array.unsafe_get ints b) land m);
          pc := i + 1
      | Usub (dst, a, b, m) ->
          Array.unsafe_set ints dst
            ((Array.unsafe_get ints a - Array.unsafe_get ints b) land m);
          pc := i + 1
      | Umul (dst, a, b, m) ->
          Array.unsafe_set ints dst
            ((Array.unsafe_get ints a * Array.unsafe_get ints b) land m);
          pc := i + 1
      | Usdiv (dst, a, b, k, m) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          let x = Array.unsafe_get ints a in
          Array.unsafe_set ints dst
            ((((x lsl k) asr k) / ((y lsl k) asr k)) land m);
          pc := i + 1
      | Uudiv_s (dst, a, b) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          Array.unsafe_set ints dst (Array.unsafe_get ints a / y);
          pc := i + 1
      | Uudiv_l (dst, a, b, m) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          let x = Array.unsafe_get ints a in
          Array.unsafe_set ints dst
            (Int64.to_int (Int64.div (to_u64 x) (to_u64 y)) land m);
          pc := i + 1
      | Usrem (dst, a, b, k, m) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          let x = Array.unsafe_get ints a in
          Array.unsafe_set ints dst
            (Stdlib.( mod ) ((x lsl k) asr k) ((y lsl k) asr k) land m);
          pc := i + 1
      | Uurem_s (dst, a, b) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          Array.unsafe_set ints dst (Stdlib.( mod ) (Array.unsafe_get ints a) y);
          pc := i + 1
      | Uurem_l (dst, a, b, m) ->
          let y = Array.unsafe_get ints b in
          if y = 0 then raise (Trap.Trap Div_by_zero);
          let x = Array.unsafe_get ints a in
          Array.unsafe_set ints dst
            (Int64.to_int (Int64.rem (to_u64 x) (to_u64 y)) land m);
          pc := i + 1
      | Uand (dst, a, b) ->
          Array.unsafe_set ints dst
            (Array.unsafe_get ints a land Array.unsafe_get ints b);
          pc := i + 1
      | Uor (dst, a, b) ->
          Array.unsafe_set ints dst
            (Array.unsafe_get ints a lor Array.unsafe_get ints b);
          pc := i + 1
      | Uxor (dst, a, b) ->
          Array.unsafe_set ints dst
            (Array.unsafe_get ints a lxor Array.unsafe_get ints b);
          pc := i + 1
      | Ushl (dst, a, b, w, m) ->
          let y = Array.unsafe_get ints b in
          Array.unsafe_set ints dst
            (if y < 0 || y >= w then 0
             else (Array.unsafe_get ints a lsl y) land m);
          pc := i + 1
      | Ulshr (dst, a, b, w) ->
          let y = Array.unsafe_get ints b in
          Array.unsafe_set ints dst
            (if y < 0 || y >= w then 0 else Array.unsafe_get ints a lsr y);
          pc := i + 1
      | Uashr (dst, a, b, w, k, m) ->
          let y = Array.unsafe_get ints b in
          let s = if y < 0 || y >= w then w - 1 else y in
          Array.unsafe_set ints dst
            ((((Array.unsafe_get ints a lsl k) asr k) asr s) land m);
          pc := i + 1
      | Uicmp (op, k, dst, a, b) ->
          let x = Array.unsafe_get ints a and y = Array.unsafe_get ints b in
          let r =
            match op with
            | 0 -> x = y
            | 1 -> x <> y
            | 2 -> (x lsl k) asr k < (y lsl k) asr k
            | 3 -> (x lsl k) asr k <= (y lsl k) asr k
            | 4 -> (x lsl k) asr k > (y lsl k) asr k
            | 5 -> (x lsl k) asr k >= (y lsl k) asr k
            | 6 -> x lxor min_int < y lxor min_int
            | 7 -> x lxor min_int <= y lxor min_int
            | 8 -> x lxor min_int > y lxor min_int
            | _ -> x lxor min_int >= y lxor min_int
          in
          Array.unsafe_set ints dst (if r then 1 else 0);
          pc := i + 1
      | Ufadd (dst, a, b) ->
          Array.unsafe_set flts dst
            (Array.unsafe_get flts a +. Array.unsafe_get flts b);
          pc := i + 1
      | Ufsub (dst, a, b) ->
          Array.unsafe_set flts dst
            (Array.unsafe_get flts a -. Array.unsafe_get flts b);
          pc := i + 1
      | Ufmul (dst, a, b) ->
          Array.unsafe_set flts dst
            (Array.unsafe_get flts a *. Array.unsafe_get flts b);
          pc := i + 1
      | Ufdiv (dst, a, b) ->
          Array.unsafe_set flts dst
            (Array.unsafe_get flts a /. Array.unsafe_get flts b);
          pc := i + 1
      | Ufcmp (op, dst, a, b) ->
          let x = Array.unsafe_get flts a and y = Array.unsafe_get flts b in
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
          Array.unsafe_set ints dst (if r then 1 else 0);
          pc := i + 1
      | Usel_i (dst, c, a, b) ->
          Array.unsafe_set ints dst
            (if Array.unsafe_get ints c <> 0 then Array.unsafe_get ints a
             else Array.unsafe_get ints b);
          pc := i + 1
      | Usel_f (dst, c, a, b) ->
          Array.unsafe_set flts dst
            (if Array.unsafe_get ints c <> 0 then Array.unsafe_get flts a
             else Array.unsafe_get flts b);
          pc := i + 1
      | Umask (dst, a, m) ->
          Array.unsafe_set ints dst (Array.unsafe_get ints a land m);
          pc := i + 1
      | Usext (dst, a, k, m) ->
          Array.unsafe_set ints dst
            (((Array.unsafe_get ints a lsl k) asr k) land m);
          pc := i + 1
      | Ufptosi (dst, a, m) ->
          let x = Array.unsafe_get flts a in
          Array.unsafe_set ints dst
            (if Float.is_nan x || Float.abs x >= 4.611686018427387904e18 then 0
             else int_of_float x land m);
          pc := i + 1
      | Usitofp (dst, a, k) ->
          Array.unsafe_set flts dst
            (float_of_int ((Array.unsafe_get ints a lsl k) asr k));
          pc := i + 1
      | Umov_i (dst, a) ->
          Array.unsafe_set ints dst (Array.unsafe_get ints a);
          pc := i + 1
      | Umov_f (dst, a) ->
          Array.unsafe_set flts dst (Array.unsafe_get flts a);
          pc := i + 1
      | Uload_i (dst, addr, w) ->
          Array.unsafe_set ints dst
            (Memory.read_int mem ~width:w ~addr:(Array.unsafe_get ints addr));
          pc := i + 1
      | Uload_f (dst, addr) ->
          Array.unsafe_set flts dst
            (Memory.read_f64 mem ~addr:(Array.unsafe_get ints addr));
          pc := i + 1
      | Urload_i (dst, addr, w) ->
          let a = Array.unsafe_get ints addr in
          Array.unsafe_set ints dst (Memory.read_int mem ~width:w ~addr:a);
          Memory.note_read last_read ~width:w ~addr:a d;
          pc := i + 1
      | Urload_f (dst, addr) ->
          let a = Array.unsafe_get ints addr in
          Array.unsafe_set flts dst (Memory.read_f64 mem ~addr:a);
          Memory.note_read last_read ~width:8 ~addr:a d;
          pc := i + 1
      | Ustore_i (v, addr, w) ->
          Memory.write_int mem ~width:w
            ~addr:(Array.unsafe_get ints addr)
            (Array.unsafe_get ints v);
          pc := i + 1
      | Ustore_f (v, addr) ->
          Memory.write_f64 mem
            ~addr:(Array.unsafe_get ints addr)
            (Array.unsafe_get flts v);
          pc := i + 1
      | Ugep (dst, base, index, scale) ->
          let idx =
            ((Array.unsafe_get ints index land 0xFFFFFFFF) lsl 31) asr 31
          in
          Array.unsafe_set ints dst
            ((Array.unsafe_get ints base + (idx * scale)) land 0xFFFFFFFF);
          pc := i + 1
      | Ucall cr ->
          if depth >= Exec.max_call_depth then
            raise (Trap.Trap Stack_overflow);
          let cf2 = Array.unsafe_get funcs cr.c_callee in
          let cframe =
            {
              Exec.ints = Array.copy cf2.int_init;
              flts = Array.copy cf2.flt_init;
              reg_ty = cf2.reg_ty;
              last_write = Array.copy cf2.lw_init;
            }
          in
          let n = Array.length cr.c_args in
          for j = 0 to n - 1 do
            if cr.c_arg_f.(j) then
              cframe.Exec.flts.(j) <- Array.unsafe_get flts cr.c_args.(j)
            else cframe.Exec.ints.(j) <- Array.unsafe_get ints cr.c_args.(j)
          done;
          if shadow then rstack := (fidx, frame, i, d) :: !rstack;
          enter cr.c_callee cframe (depth + 1) ~start:0;
          if shadow then rstack := List.tl !rstack;
          if cr.c_dst >= 0 then
            if cr.c_dst_f then Array.unsafe_set flts cr.c_dst st.ret_f
            else Array.unsafe_set ints cr.c_dst st.ret_i;
          pc := i + 1;
          if counting && quiet () then state := 2
      | Ucall_b1 (dst, fn, a) ->
          let r = fn (Array.unsafe_get flts a) in
          if dst >= 0 then Array.unsafe_set flts dst r;
          pc := i + 1
      | Ucall_b2 (dst, fn, a, b) ->
          let r = fn (Array.unsafe_get flts a) (Array.unsafe_get flts b) in
          if dst >= 0 then Array.unsafe_set flts dst r;
          pc := i + 1
      | Uout_i (s, tag) ->
          let v = Array.unsafe_get ints s in
          (match tag with
          | 0 -> Buffer.add_uint8 out (v land 0xFF)
          | 1 -> Buffer.add_uint16_le out v
          | 2 -> Buffer.add_int32_le out (Int32.of_int v)
          | _ -> Buffer.add_int64_le out (to_u64 v));
          pc := i + 1
      | Uout_f s ->
          Buffer.add_int64_le out (Int64.bits_of_float (Array.unsafe_get flts s));
          pc := i + 1
      | Uguard_i (a, b) ->
          if Array.unsafe_get ints a <> Array.unsafe_get ints b then
            raise (Trap.Trap Guard_violation);
          pc := i + 1
      | Uguard_f (a, b) ->
          if
            not
              (Int64.equal
                 (Int64.bits_of_float (Array.unsafe_get flts a))
                 (Int64.bits_of_float (Array.unsafe_get flts b)))
          then raise (Trap.Trap Guard_violation);
          pc := i + 1
      | Uabort -> raise (Trap.Trap Abort_called)
      | Ujmp p ->
          pc := p;
          if p = st.watch_pc then jumped fidx frame p
      | Ucbr (c, tpc, fpc) ->
          let p = if Array.unsafe_get ints c <> 0 then tpc else fpc in
          pc := p;
          if p = st.watch_pc then jumped fidx frame p
      | Uret -> state := 1
      | Uret_i s ->
          st.ret_i <- Array.unsafe_get ints s;
          state := 1
      | Uret_f s ->
          st.ret_f <- Array.unsafe_get flts s;
          state := 1
      | Uinterp ins ->
          interp fidx frame i d depth ins;
          pc := i + 1;
          if counting && quiet () then state := 2
      | Uinterp_t tm -> (
          match tm with
          | Br l -> pc := cf.block_off.(l)
          | Cbr { cond; if_true; if_false } ->
              let l = if igeti frame cond <> 0 then if_true else if_false in
              pc := cf.block_off.(l)
          | Ret None -> state := 1
          | Ret (Some v) ->
              (match code.source.Program.funcs.(fidx).Program.ret with
              | Some rt when Ir.Ty.is_float rt -> st.ret_f <- igetf frame v
              | Some _ -> st.ret_i <- igeti frame v
              | None -> ());
              state := 1
          | Unreachable -> raise (Trap.Trap Abort_called)));
      (* Returns write no register, so this never follows a return. *)
      if counting && fl land 2 <> 0 then begin
        let c = st.wc in
        st.wc <- c + 1;
        Array.unsafe_set lw ((fl lsr 2) - 1) d;
        if watch_write
           && (c >= ev.ev_cand || d >= ev.ev_dyn)
           && handle ~dyn:d ~cand:c frame (Array.unsafe_get metas i)
        then state := 2
      end
    done;
    if counting && !state = 2 then handover fidx frame depth ~start:!pc
  in
  let rec exec_fn fidx frame depth ~start =
    if quiet () then exec_quiet fidx frame depth ~start
    else
      loop ~counting:true ~enter:exec_fn ~handover:exec_quiet
        ~interp:interp_step fidx frame depth ~start
  and exec_quiet fidx frame depth ~start =
    loop ~counting:false ~enter:exec_quiet ~handover:exec_quiet
      ~interp:interp_step fidx frame depth ~start
  (* One mutated instruction, interpreted generically — the mirror of the
     seed interpreter's [step] over the same (flipped) [Ir.Instr.t], with
     calls re-entering compiled code.  [fidx], [i] and [d] locate the
     instruction for the shadow stack. *)
  and interp_step fidx (frame : Exec.frame) i d depth (ins : Ir.Instr.t) =
    let ints = frame.Exec.ints and flts = frame.Exec.flts in
    match ins with
    | Binop { op; ty; dst; a; b } ->
        ints.(dst) <- Exec.exec_binop op ty (igeti frame a) (igeti frame b)
    | Fbinop { op; dst; a; b } ->
        flts.(dst) <- Exec.exec_fbinop op (igetf frame a) (igetf frame b)
    | Icmp { op; ty; dst; a; b } ->
        ints.(dst) <- Exec.exec_icmp op ty (igeti frame a) (igeti frame b)
    | Fcmp { op; dst; a; b } ->
        ints.(dst) <- Exec.exec_fcmp op (igetf frame a) (igetf frame b)
    | Select { ty; dst; cond; a; b } ->
        if Ir.Ty.is_float ty then
          flts.(dst) <-
            (if igeti frame cond <> 0 then igetf frame a else igetf frame b)
        else
          ints.(dst) <-
            (if igeti frame cond <> 0 then igeti frame a else igeti frame b)
    | Cast { op; from_ty; to_ty; dst; a } -> (
        match op with
        | Trunc | Ptrtoint | Inttoptr ->
            ints.(dst) <- Ir.Bits.mask to_ty (igeti frame a)
        | Zext -> ints.(dst) <- igeti frame a
        | Sext ->
            ints.(dst) <-
              Ir.Bits.mask to_ty (Ir.Bits.sext from_ty (igeti frame a))
        | Fptosi -> ints.(dst) <- Exec.float_to_int to_ty (igetf frame a)
        | Sitofp ->
            flts.(dst) <- float_of_int (Ir.Bits.sext from_ty (igeti frame a)))
    | Mov { ty; dst; a } ->
        if Ir.Ty.is_float ty then flts.(dst) <- igetf frame a
        else ints.(dst) <- igeti frame a
    | Load { ty; dst; addr } ->
        let a = igeti frame addr in
        if Ir.Ty.is_float ty then flts.(dst) <- Memory.read_f64 mem ~addr:a
        else ints.(dst) <- Memory.read_int mem ~width:(Ir.Ty.bytes ty) ~addr:a
    | Store { ty; value; addr } ->
        let a = igeti frame addr in
        if Ir.Ty.is_float ty then
          Memory.write_f64 mem ~addr:a (igetf frame value)
        else
          Memory.write_int mem ~width:(Ir.Ty.bytes ty) ~addr:a
            (igeti frame value)
    | Gep { dst; base; index; scale } ->
        let idx = Ir.Bits.sext I32 (Ir.Bits.mask I32 (igeti frame index)) in
        ints.(dst) <- Ir.Bits.mask Ptr (igeti frame base + (idx * scale))
    | Call { dst; callee; args } -> (
        match Hashtbl.find_opt code.source.Program.targets callee with
        | None -> assert false (* validated; flips never touch names *)
        | Some (Program.B1 f) ->
            let r = f (igetf frame (List.hd args)) in
            (match dst with Some d -> flts.(d) <- r | None -> ())
        | Some (Program.B2 f) -> (
            match args with
            | [ a; b ] ->
                let r = f (igetf frame a) (igetf frame b) in
                (match dst with Some d -> flts.(d) <- r | None -> ())
            | _ -> assert false)
        | Some (Program.Fn cidx) ->
            if depth >= Exec.max_call_depth then
              raise (Trap.Trap Stack_overflow);
            let cf2 = funcs.(cidx) in
            let cframe =
              {
                Exec.ints = Array.copy cf2.int_init;
                flts = Array.copy cf2.flt_init;
                reg_ty = cf2.reg_ty;
                last_write = Array.copy cf2.lw_init;
              }
            in
            let src = code.source.Program.funcs.(cidx) in
            List.iteri
              (fun j arg ->
                if Ir.Ty.is_float src.Program.params.(j) then
                  cframe.Exec.flts.(j) <- igetf frame arg
                else cframe.Exec.ints.(j) <- igeti frame arg)
              args;
            if shadow then rstack := (fidx, frame, i, d) :: !rstack;
            exec_fn cidx cframe (depth + 1) ~start:0;
            if shadow then rstack := List.tl !rstack;
            (match (dst, src.Program.ret) with
            | Some d, Some rt ->
                if Ir.Ty.is_float rt then flts.(d) <- st.ret_f
                else ints.(d) <- st.ret_i
            | _ -> ()))
    | Output { ty; value } ->
        if Ir.Ty.is_float ty then
          Exec.add_output out ty 0 (igetf frame value)
        else Exec.add_output out ty (igeti frame value) 0.0
    | Guard { ty; a; b } ->
        let equal =
          if Ir.Ty.is_float ty then
            Int64.equal
              (Int64.bits_of_float (igetf frame a))
              (Int64.bits_of_float (igetf frame b))
          else igeti frame a = igeti frame b
        in
        if not equal then raise (Trap.Trap Guard_violation)
    | Abort -> raise (Trap.Trap Abort_called)
  in
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
          if cr.c_dst_f then frame.Exec.flts.(cr.c_dst) <- st.ret_f
          else frame.Exec.ints.(cr.c_dst) <- st.ret_i
    | _ -> assert false);
    let fl = cf.flags.(i) in
    if fl land 2 <> 0 then begin
      let c = st.wc in
      st.wc <- c + 1;
      frame.Exec.last_write.((fl lsr 2) - 1) <- calld;
      if watch_write && (c >= ev.ev_cand || calld >= ev.ev_dyn) then
        ignore (handle ~dyn:calld ~cand:c frame cf.metas.(i) : bool)
    end
  in
  let rebuild (s : Checkpoint.frame_snap) =
    let cf = funcs.(s.fs_fidx) in
    let ints = Array.copy cf.int_init and flts = Array.copy cf.flt_init in
    Array.blit s.fs_ints 0 ints 0 (Array.length s.fs_ints);
    Array.blit s.fs_flts 0 flts 0 (Array.length s.fs_flts);
    { Exec.ints; flts; reg_ty = cf.reg_ty; last_write = Array.copy s.fs_lw }
  in
  (* Re-enter the captured stack: the innermost frame runs to completion
     first, then each outer frame completes its call and continues. *)
  let rec resume_stack snaps depth =
    match snaps with
    | [] -> assert false
    | [ (inner : Checkpoint.frame_snap) ] ->
        exec_fn inner.fs_fidx (rebuild inner) depth ~start:inner.fs_pc
    | (outer : Checkpoint.frame_snap) :: rest ->
        let frame = rebuild outer in
        if shadow then
          rstack :=
            (outer.fs_fidx, frame, outer.fs_pc, outer.fs_call_dyn) :: !rstack;
        resume_stack rest (depth + 1);
        if shadow then rstack := List.tl !rstack;
        complete_call outer.fs_fidx frame outer.fs_pc outer.fs_call_dyn;
        exec_fn outer.fs_fidx frame depth ~start:(outer.fs_pc + 1)
  in
  arm_when_done ();
  let ended status =
    {
      Exec.status;
      output = Buffer.contents out;
      dyn_count = st.dyn;
    }
  in
  let result =
    match
      match resume with
      | Some p -> resume_stack (Array.to_list p.Checkpoint.ck_stack) 0
      | None ->
          let mainf = funcs.(code.main) in
          let frame =
            {
              Exec.ints = Array.copy mainf.int_init;
              flts = Array.copy mainf.flt_init;
              reg_ty = mainf.reg_ty;
              last_write = Array.copy mainf.lw_init;
            }
          in
          exec_fn code.main frame 0 ~start:0
    with
    | () -> ended Exec.Finished
    | exception Trap.Trap t -> ended (Exec.Trapped t)
    | exception Hang_exn -> ended Exec.Hung
    | exception Rejoined -> ended Exec.Finished
  in
  if rec_on then
    Checkpoint.complete recd ~last_read ~read_cands:st.rc ~write_cands:st.wc
      result;
  Exec.record_run result;
  result

let run ?events ?record ?mem ?exits ~budget code =
  run_internal ?events ?record ?mem ?exits ~budget code

let resume ~events ~mem ~(point : Checkpoint.point) ?orig ?exits ~budget code
    =
  Checkpoint.note_restore point;
  Memory.restore_pages mem point.ck_pages;
  run_internal ~events ~mem ~resume:point ?orig ?exits ~budget code
