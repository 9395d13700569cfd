type row = {
  program : string;
  summary : Dataflow.Prune.summary;
  read_checked : int;
  write_checked : int;
  misclassified : int;
}

let pruned_fraction (s : Dataflow.Prune.summary) =
  Dataflow.Prune.benign_fraction
    ~total:(s.read_total + s.write_total)
    ~benign:(s.read_benign + s.read_redundant + s.write_benign + s.write_redundant)

let read_fraction (s : Dataflow.Prune.summary) =
  Dataflow.Prune.benign_fraction ~total:s.read_total
    ~benign:(s.read_benign + s.read_redundant)

let write_fraction (s : Dataflow.Prune.summary) =
  Dataflow.Prune.benign_fraction ~total:s.write_total
    ~benign:(s.write_benign + s.write_redundant)

(* Replay the golden run once, recording the per-candidate static
   identities; candidate ordinal [i] of the stream is exactly the [i]-th
   pre-hook (read) or post-hook (write) event, matching the ordinal
   [Injector] counts when forcing a first injection. *)
let collect_metas (w : Core.Workload.t) =
  let reads = ref [] and writes = ref [] in
  let hooks =
    {
      Vm.Exec.pre = (fun ~dyn:_ _ m -> reads := m :: !reads);
      post = (fun ~dyn:_ _ m -> writes := m :: !writes);
      at = Vm.Exec.no_hook;
    }
  in
  ignore (Vm.Exec.run ~hooks ~budget:w.budget w.prog);
  (Array.of_list (List.rev !reads), Array.of_list (List.rev !writes))

(* A dynamic fault site with at least one provably-benign bit. *)
type site = { ordinal : int; slot : int; ty : Ir.Ty.t; demand : int }

let read_pool prunes (reg_tys : Ir.Ty.t array array) metas =
  let pool = ref [] in
  Array.iteri
    (fun i (m : Vm.Meta.t) ->
      Array.iteri
        (fun slot reg ->
          let ty = reg_tys.(m.fidx).(reg) in
          let demand =
            Dataflow.Prune.read_demand prunes.(m.fidx) ~bidx:m.bidx
              ~idx:m.idx ~reg
          in
          if Dataflow.Prune.benign_bits ty ~demand > 0 then
            pool := { ordinal = i; slot; ty; demand } :: !pool)
        m.srcs)
    metas;
  Array.of_list (List.rev !pool)

let write_pool prunes (reg_tys : Ir.Ty.t array array) metas =
  let pool = ref [] in
  Array.iteri
    (fun i (m : Vm.Meta.t) ->
      let ty = reg_tys.(m.fidx).(m.dst) in
      let demand =
        Dataflow.Prune.write_demand prunes.(m.fidx) ~bidx:m.bidx ~idx:m.idx
      in
      if Dataflow.Prune.benign_bits ty ~demand > 0 then
        pool := { ordinal = i; slot = -1; ty; demand } :: !pool)
    metas;
  Array.of_list (List.rev !pool)

let sample_benign_bit rng ty demand =
  let w = Dataflow.Prune.flip_width ty in
  let rec go () =
    let bit = Prng.int rng w in
    if Dataflow.Prune.is_benign ty ~demand ~bit then bit else go ()
  in
  go ()

let validate w pool tech ~n rng =
  if Array.length pool = 0 then (0, 0)
  else begin
    let bad = ref 0 in
    for k = 0 to n - 1 do
      let s = Prng.pick rng pool in
      let bit = sample_benign_bit rng s.ty s.demand in
      let e =
        Core.Experiment.run_at w (Core.Spec.single tech)
          ~first:(s.ordinal, s.slot, bit)
          (Prng.split_at rng k)
      in
      if e.outcome <> Core.Outcome.Benign then incr bad
    done;
    (n, !bad)
  end

let compute ?(validate_n = 40) ?(seed = 0x5EED_0BADL) (study : Study.t) =
  List.mapi
    (fun i (w : Core.Workload.t) ->
      let m =
        match Bench_suite.Registry.find w.name with
        | Some e -> e.build ()
        | None ->
            invalid_arg
              (Printf.sprintf "Prune_static: %s is not a registry program"
                 w.name)
      in
      let summary =
        Dataflow.Prune.summarise m ~profile:(Core.Workload.profile w)
      in
      let prunes =
        Array.of_list (List.map Dataflow.Prune.analyse m.m_funcs)
      in
      let reg_tys =
        Array.of_list
          (List.map (fun (f : Ir.Func.t) -> f.f_reg_ty) m.m_funcs)
      in
      let read_metas, write_metas = collect_metas w in
      let rng = Prng.split_at (Prng.of_seed seed) i in
      let read_checked, bad_r =
        validate w
          (read_pool prunes reg_tys read_metas)
          Core.Technique.Read ~n:validate_n (Prng.split_at rng 0)
      in
      let write_checked, bad_w =
        validate w
          (write_pool prunes reg_tys write_metas)
          Core.Technique.Write ~n:validate_n (Prng.split_at rng 1)
      in
      {
        program = w.name;
        summary;
        read_checked;
        write_checked;
        misclassified = bad_r + bad_w;
      })
    study.workloads
