type t = {
  name : string;
  modl : Ir.Func.modl;
      (* the source module, retained for per-function fingerprints *)
  prog : Vm.Program.t;
  code : Vm.Code.t;
      (* decoded once here, shared immutably across engine domains *)
  golden : Vm.Exec.result;
  checkpoints : Vm.Checkpoint.set;
      (* recorded by the golden run itself, shared like [code] *)
  budget : int;
  digest : string;
      (* md5 of the printed IR; part of every result-store key *)
  mem_mapped : Vm.Memory.mapped;
      (* mapped arena bytes of the template, as runs — the Mem domain's
         location space *)
  code_sites : Vm.Codeflip.sites;
      (* static instruction-field table — the Code domain's location
         space.  Both eager: building them is one pass over static
         state, and sharing them across engine domains must not race. *)
  mems : Vm.Memory.t list Atomic.t; (* spare memories: see [with_mem] *)
}

let make ?(hang_factor = 10) ?expected_output ~name m =
  let prog = Vm.Program.load m in
  let code = Vm.Code.compile prog in
  (* One execution yields the golden result and the checkpoint set; the
     registry golden differential pins it to the seed interpreter. *)
  let record = Vm.Checkpoint.recorder ~interval:Vm.Checkpoint.interval in
  let golden = Vm.Code.run ~record ~budget:Vm.Exec.golden_budget code in
  (match golden.status with
  | Finished -> ()
  | Trapped trap ->
      invalid_arg
        (Printf.sprintf "Workload.make: %s golden run trapped (%s)" name
           (Vm.Trap.to_string trap))
  | Hung -> invalid_arg ("Workload.make: " ^ name ^ " golden run hung"));
  (match expected_output with
  | Some expected when not (String.equal expected golden.output) ->
      invalid_arg ("Workload.make: " ^ name ^ " golden output mismatch")
  | Some _ | None -> ());
  let checkpoints = Vm.Checkpoint.finish record in
  if checkpoints.read_cands = 0 || checkpoints.write_cands = 0 then
    invalid_arg ("Workload.make: " ^ name ^ " has no injection candidates");
  {
    name;
    modl = m;
    prog;
    code;
    golden;
    checkpoints;
    budget = (hang_factor * golden.dyn_count) + 1000;
    digest = Ir.Fingerprint.modl m;
    mem_mapped = Vm.Memory.mapped prog.mem_template;
    code_sites = Vm.Codeflip.sites prog;
    mems = Atomic.make [];
  }

(* The spec's time-axis size: candidate ordinals of the technique for
   the Reg domain, raw dynamic instructions for Mem/Code (their flips
   land between dynamic instructions, so every instruction is a
   candidate). *)
let candidates t (spec : Spec.t) =
  match spec.domain with
  | Domain.Reg -> (
      match spec.technique with
      | Technique.Read -> t.checkpoints.read_cands
      | Technique.Write -> t.checkpoints.write_cands)
  | Domain.Mem | Domain.Code -> t.golden.dyn_count

(* A lock-free stack.  Every pushed cell is a fresh allocation, so a
   compare-and-set on the head fails whenever the stack changed. *)
let rec take_mem t =
  match Atomic.get t.mems with
  | [] -> Vm.Memory.clone t.prog.mem_template
  | m :: rest as spare ->
      if Atomic.compare_and_set t.mems spare rest then m else take_mem t

let rec give_mem t m =
  let spare = Atomic.get t.mems in
  if not (Atomic.compare_and_set t.mems spare (m :: spare)) then
    give_mem t m

let with_mem t f =
  let m = take_mem t in
  let r = f m in
  give_mem t m;
  r

let ensure_checkpoints t = Some t.checkpoints

(* Analysis-only: the golden run again, on the seed interpreter, counting
   block entries: a block's first instruction, or its terminator when it
   has none, is its [idx = 0].  Nothing is kept, so campaigns never carry
   it. *)
let profile t =
  let counts =
    Array.map
      (fun (f : Vm.Program.lfunc) -> Array.make (Array.length f.blocks) 0)
      t.prog.funcs
  in
  let at ~dyn:_ _ (m : Vm.Meta.t) =
    if m.idx = 0 then counts.(m.fidx).(m.bidx) <- counts.(m.fidx).(m.bidx) + 1
  in
  let hooks = { Vm.Exec.pre = Vm.Exec.no_hook; post = Vm.Exec.no_hook; at } in
  ignore
    (Vm.Exec.run ~hooks ~budget:Vm.Exec.golden_budget t.prog : Vm.Exec.result);
  counts
