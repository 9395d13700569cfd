(* Interprocedural propagation summaries.

   For every function of a module, characterise how a fault injected
   while the function's own instructions execute can escape across its
   boundary:

   - [ret_corrupt]: which bits of the return value can deviate from the
     golden run.  A flip can land on the register operand of a [Ret]
     itself, so any register return corrupts up to its full type width;
     the refinement comes from the type, from [void] returns and from
     constant returns (a function whose every reachable return is the
     same immediate cannot return a wrong value — it can only trap or
     hang).
   - [corrupts_memory] / [emits_output] / [may_trap] / [may_loop]:
     whether the function (or anything it transitively calls) stores to
     memory, appends to the output stream, can raise a trap, or can
     fail to terminate (CFG cycle or call-graph recursion).
   - [params_demanded]: per-parameter demanded-bits masks at function
     entry, solved as an interprocedural fixpoint over {!Bitmask} — a
     flip in a caller's argument bit outside the mask is provably
     benign for this callee.

   The booleans and globals are a transitive closure over the call
   graph, iterated to a fixpoint; the demand masks iterate downward
   from the conservative intraprocedural solution (full escape at call
   sites) and only shrink, so both loops terminate.

   The summaries are a report ([onebit digests]); no campaign is
   scheduled on them, and cached-profile validity is decided by
   [Ir.Fingerprint] digests alone.  Their sharpest prediction is
   {!sdc_free_single}: a function with no boundary value channel
   (constant-or-void return, no stores, no output) cannot cause silent
   data corruption under a single-bit-flip campaign when the flip lands
   on its own instructions — every such experiment is benign, detected
   or hung.  The test suite checks it by injection. *)

type t = {
  fn : string;
  params_demanded : int array;
  ret_corrupt : int;
  corrupts_memory : bool;
  emits_output : bool;
  may_trap : bool;
  may_loop : bool;
  callees : string list;
  globals : string list;
}

let operands (i : Ir.Instr.t) : Ir.Instr.operand list =
  match i with
  | Binop { a; b; _ }
  | Fbinop { a; b; _ }
  | Icmp { a; b; _ }
  | Fcmp { a; b; _ }
  | Guard { a; b; _ } ->
      [ a; b ]
  | Select { cond; a; b; _ } -> [ cond; a; b ]
  | Cast { a; _ } | Mov { a; _ } -> [ a ]
  | Load { addr; _ } -> [ addr ]
  | Store { value; addr; _ } -> [ value; addr ]
  | Gep { base; index; _ } -> [ base; index ]
  | Call { args; _ } -> args
  | Output { value; _ } -> [ value ]
  | Abort -> []

let term_operands (t : Ir.Instr.terminator) : Ir.Instr.operand list =
  match t with
  | Br _ | Unreachable | Ret None -> []
  | Cbr { cond; _ } -> [ cond ]
  | Ret (Some v) -> [ v ]

(* Can this instruction raise a trap on some (possibly faulty) run?
   Memory accesses can go out of bounds under a corrupted address; a
   register (or zero-immediate) divisor can be(come) zero; [Guard] and
   [Abort] trap by design.  Pure arithmetic never traps. *)
let instr_may_trap (i : Ir.Instr.t) =
  match i with
  | Load _ | Store _ | Guard _ | Abort -> true
  | Binop { op = Sdiv | Udiv | Srem | Urem; b; _ } -> (
      match b with Imm n -> n = 0 | _ -> true)
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Mov _ | Gep _
  | Output _ ->
      false
  | Call _ -> false (* accounted via the call graph; builtins are pure *)

let has_cycle (cfg : Cfg.t) =
  let state = Array.make cfg.nblocks 0 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let rec visit b =
    if state.(b) = 1 then true
    else if state.(b) = 2 then false
    else begin
      state.(b) <- 1;
      let cyc = Array.exists visit cfg.succs.(b) in
      state.(b) <- 2;
      cyc
    end
  in
  visit 0

(* Per-function facts before call-graph propagation. *)
type direct = {
  d_fn : string;
  d_ret : int;
  mutable d_mem : bool;
  mutable d_out : bool;
  mutable d_trap : bool;
  d_cycle : bool;
  d_callees : string list; (* module functions only *)
  all_callees : string list;
  mutable d_globals : string list;
}

let full_of = Bitmask.full_of

let ret_corrupt (cfg : Cfg.t) =
  let f = cfg.func in
  match f.f_ret with
  | None -> 0
  | Some ty ->
      let imms = ref [] and other = ref false and any = ref false in
      Array.iteri
        (fun bidx (b : Ir.Func.block) ->
          if cfg.reachable.(bidx) then
            match b.b_term with
            | Ret (Some (Imm n)) ->
                any := true;
                imms := n :: !imms
            | Ret (Some _) ->
                any := true;
                other := true
            | _ -> ())
        f.f_blocks;
      if not !any then 0
      else if !other then full_of ty
      else
        (* constant returns only: the deviation between any two runs is
           contained in the union of the set bits, and a single constant
           cannot deviate at all *)
        let distinct = List.sort_uniq compare !imms in
        if List.length distinct <= 1 then 0
        else List.fold_left ( lor ) 0 distinct land full_of ty

let direct_of (m : Ir.Func.modl) (f : Ir.Func.t) =
  let cfg = Cfg.of_func f in
  let is_module n = Ir.Func.find_func m n <> None in
  let all_callees = Ir.Fingerprint.callees f in
  let d =
    {
      d_fn = f.f_name;
      d_ret = ret_corrupt cfg;
      d_mem = false;
      d_out = false;
      d_trap = false;
      d_cycle = has_cycle cfg;
      d_callees = List.filter is_module all_callees;
      all_callees;
      d_globals = [];
    }
  in
  let glob op =
    match (op : Ir.Instr.operand) with
    | Glob g -> if not (List.mem g d.d_globals) then d.d_globals <- g :: d.d_globals
    | _ -> ()
  in
  Array.iteri
    (fun bidx (b : Ir.Func.block) ->
      if cfg.reachable.(bidx) then begin
        Array.iter
          (fun i ->
            (match i with
            | Ir.Instr.Store _ -> d.d_mem <- true
            | Output _ -> d.d_out <- true
            | _ -> ());
            if instr_may_trap i then d.d_trap <- true;
            List.iter glob (operands i))
          b.b_instrs;
        (match b.b_term with Unreachable -> d.d_trap <- true | _ -> ());
        List.iter glob (term_operands b.b_term)
      end)
    f.f_blocks;
  d.d_globals <- List.rev d.d_globals;
  d

(* Interprocedural demanded-bits fixpoint: start from the conservative
   intraprocedural answer and re-analyse with callee masks until stable
   (masks only shrink, so this terminates; the bound is a backstop). *)
let solve_demands (m : Ir.Func.modl) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.Func.t) ->
      Hashtbl.replace tbl f.f_name
        (Array.of_list (List.map full_of f.f_params)))
    m.m_funcs;
  let entry_masks f call_demand =
    let bm = Bitmask.analyse ~call_demand f in
    let before = Bitmask.demand_before bm ~bidx:0 ~idx:0 in
    Array.of_list
      (List.mapi (fun i ty -> before.(i) land full_of ty) f.f_params)
  in
  let call_demand name = Hashtbl.find_opt tbl name in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 20 do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : Ir.Func.t) ->
        let masks = entry_masks f call_demand in
        let old = Hashtbl.find tbl f.f_name in
        (* monotone: never let a mask grow back *)
        let masks = Array.mapi (fun i v -> v land old.(i)) masks in
        if masks <> old then begin
          Hashtbl.replace tbl f.f_name masks;
          changed := true
        end)
      m.m_funcs
  done;
  tbl

let analyse (m : Ir.Func.modl) : t list =
  let directs = List.map (direct_of m) m.m_funcs in
  let by_name = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace by_name d.d_fn d) directs;
  (* call-graph reachability per function (includes self when on a
     recursion cycle), for the transitive effect flags *)
  let reach d =
    let seen = Hashtbl.create 8 in
    let rec visit first n =
      match Hashtbl.find_opt by_name n with
      | None -> ()
      | Some dn ->
          if first || not (Hashtbl.mem seen n) then begin
            if not first then Hashtbl.replace seen n ();
            List.iter (visit false) dn.d_callees
          end
    in
    visit true d.d_fn;
    seen
  in
  let demands = solve_demands m in
  List.map
    (fun d ->
      let r = reach d in
      let over pred = pred d || Hashtbl.fold (fun n () acc ->
          acc || match Hashtbl.find_opt by_name n with
          | Some dn -> pred dn
          | None -> false) r false
      in
      let recursive = Hashtbl.mem r d.d_fn in
      let globals =
        Hashtbl.fold
          (fun n () acc ->
            match Hashtbl.find_opt by_name n with
            | Some dn ->
                List.fold_left
                  (fun acc g -> if List.mem g acc then acc else g :: acc)
                  acc dn.d_globals
            | None -> acc)
          r d.d_globals
      in
      {
        fn = d.d_fn;
        params_demanded =
          (match Hashtbl.find_opt demands d.d_fn with
          | Some a -> a
          | None -> [||]);
        ret_corrupt = d.d_ret;
        corrupts_memory = over (fun x -> x.d_mem);
        emits_output = over (fun x -> x.d_out);
        may_trap = over (fun x -> x.d_trap);
        may_loop = over (fun x -> x.d_cycle) || recursive;
        callees = d.all_callees;
        globals = List.sort compare globals;
      })
    directs

let find ts name = List.find_opt (fun t -> t.fn = name) ts

let sdc_free_single t =
  t.ret_corrupt = 0 && not t.corrupts_memory && not t.emits_output

let render t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "params=[%s]"
       (String.concat ","
          (Array.to_list
             (Array.map (Printf.sprintf "0x%x") t.params_demanded))));
  Buffer.add_string buf (Printf.sprintf " ret=0x%x" t.ret_corrupt);
  if t.corrupts_memory then Buffer.add_string buf " mem";
  if t.emits_output then Buffer.add_string buf " out";
  if t.may_trap then Buffer.add_string buf " trap";
  if t.may_loop then Buffer.add_string buf " loop";
  if t.callees <> [] then
    Buffer.add_string buf
      (Printf.sprintf " calls=[%s]" (String.concat "," t.callees));
  if t.globals <> [] then
    Buffer.add_string buf
      (Printf.sprintf " globals=[%s]" (String.concat "," t.globals));
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (render t))
