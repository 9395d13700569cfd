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
  checkpoints : Vm.Checkpoint.set;
      (* recorded by the golden run itself, shared like [code] *)
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
  let code = Vm.Code.compile prog in
  let profile =
    Array.map
      (fun (f : Vm.Program.lfunc) -> Array.make (Array.length f.blocks) 0)
      prog.funcs
  in
  let block_hook ~fidx ~bidx =
    profile.(fidx).(bidx) <- profile.(fidx).(bidx) + 1
  in
  (* One execution yields the golden result, the block profile and the
     checkpoint set; the registry golden differential pins it to the seed
     interpreter. *)
  let record = Vm.Checkpoint.recorder ~interval:Vm.Checkpoint.interval in
  let golden =
    Vm.Code.run ~block_hook ~record ~budget:Vm.Exec.golden_budget code
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
    checkpoints = Vm.Checkpoint.finish record;
    budget = (hang_factor * golden.dyn_count) + 1000;
    digest = Ir.Fingerprint.modl m;
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

let ensure_checkpoints t = Some t.checkpoints
