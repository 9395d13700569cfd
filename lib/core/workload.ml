type t = {
  name : string;
  modl : Ir.Func.modl;
      (* the source module, retained for per-function fingerprints *)
  prog : Vm.Program.t;
  code : Vm.Code.t;
      (* decoded once here, shared immutably across engine domains *)
  golden : Vm.Exec.result;
  profile : int array array;
      (* golden-run execution count of each (function, block) *)
  budget : int;
  digest : string;
      (* md5 of the printed IR; part of every result-store key *)
  mem_addrs : int array;
      (* mapped arena addresses of the template — the Mem domain's
         location space *)
  code_sites : Vm.Codeflip.sites;
      (* static instruction-field table — the Code domain's location
         space.  Both eager: building them is one pass over static
         state, and sharing them across engine domains must not race. *)
}

let make ?(hang_factor = 10) ?expected_output ~name m =
  let prog = Vm.Program.load m in
  let digest = Ir.Fingerprint.modl m in
  let code = Vm.Code.compile ~digest prog in
  let profile =
    Array.map
      (fun (f : Vm.Program.lfunc) -> Array.make (Array.length f.blocks) 0)
      prog.funcs
  in
  let block_hook ~fidx ~bidx =
    profile.(fidx).(bidx) <- profile.(fidx).(bidx) + 1
  in
  let golden =
    match Config.active_backend () with
    | Config.Seed -> Vm.Exec.run ~block_hook ~budget:Vm.Exec.golden_budget prog
    | Config.Compiled ->
        Vm.Code.run ~block_hook ~budget:Vm.Exec.golden_budget code
  in
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
  if golden.read_cands = 0 || golden.write_cands = 0 then
    invalid_arg ("Workload.make: " ^ name ^ " has no injection candidates");
  {
    name;
    modl = m;
    prog;
    code;
    golden;
    profile;
    budget = (hang_factor * golden.dyn_count) + 1000;
    digest;
    mem_addrs = Vm.Memory.mapped_addrs prog.mem_template;
    code_sites = Vm.Codeflip.sites prog;
  }

(* The spec's time-axis size: candidate ordinals of the technique for
   the Reg domain, raw dynamic instructions for Mem/Code (their flips
   land between dynamic instructions, so every instruction is a
   candidate). *)
let candidates t (spec : Spec.t) =
  match spec.domain with
  | Domain.Reg -> (
      match spec.technique with
      | Technique.Read -> t.golden.read_cands
      | Technique.Write -> t.golden.write_cands)
  | Domain.Mem | Domain.Code -> t.golden.dyn_count

(* Record golden-prefix checkpoints for this workload, once per digest
   process-wide (engine domains share the set like they share compiled
   code).  Lazy rather than part of [make] so the recording run — one
   extra instrumented golden execution — is only paid when a
   checkpointed experiment actually runs.  [None] on the seed
   interpreter, which never restores. *)
let ensure_checkpoints t =
  if Config.active_backend () <> Config.Compiled then None
  else
    Vm.Checkpoint.ensure t.digest ~record:(fun () ->
        let r = Vm.Checkpoint.recorder ~interval:Vm.Checkpoint.interval in
        let g = Vm.Code.run ~record:r ~budget:Vm.Exec.golden_budget t.code in
        match g.Vm.Exec.status with
        | Finished -> Some (Vm.Checkpoint.finish r)
        | Trapped _ | Hung -> None)
