(* Compositional campaign execution: per-function outcome profiles,
   cached and recomposed.

   A campaign's n experiments are partitioned by the function that owns
   each experiment's FIRST flip: experiment i draws its first candidate
   ordinal at injector creation ([Injector.first_target]), and one
   instrumented fault-free run maps every candidate ordinal to the
   function index of its instruction.  The partition — and every
   experiment's entire course — depends only on (workload, spec, n,
   seed), never on this module, so profiles over the partition compose
   into exactly the result [Campaign.run] produces.

   Each function's profile is cached in the store under
   (program, function name, identity digest, environment digest, spec,
   n, seed).  The environment digest ([Ir.Fingerprint.environment])
   covers the globals and the semantic digests of every function
   reachable from the entry; while it is unchanged, the golden run, the
   candidate stream, the ordinal->owner map and all PRNG draws are
   unchanged, so a cached profile is the exact counts its function's
   partition would produce if re-run.  The identity digest pins the
   function's own source form, so editing one function invalidates
   exactly that function's profiles: everything else composes from
   cache, and the edited function re-runs only its share of the
   experiments. *)

let m_reuse = Obs.Metrics.counter "onebit_profile_reuse_total"
let m_recompute = Obs.Metrics.counter "onebit_profile_recompute_total"
let m_funcs_reused = Obs.Metrics.counter "onebit_profile_funcs_reused_total"

let m_funcs_recomputed =
  Obs.Metrics.counter "onebit_profile_funcs_recomputed_total"

type stats = {
  funcs_total : int;
  funcs_reused : int;
  funcs_recomputed : int;
  exps_reused : int;
  exps_recomputed : int;
}

(* Candidate-ordinal -> owning function index, for both techniques. *)
type attribution = { reads : int array; writes : int array }

(* One instrumented fault-free run on the seed interpreter: its hooks
   fire once per candidate, carrying the instruction's static identity.
   Run once per [partition] call; nothing is kept. *)
let attribution (w : Core.Workload.t) =
  let reads = Array.make (max 1 w.checkpoints.read_cands) (-1) in
  let writes = Array.make (max 1 w.checkpoints.write_cands) (-1) in
  let nr = ref 0 and nw = ref 0 in
  let hooks =
    {
      Vm.Exec.pre =
        (fun ~dyn:_ _ (m : Vm.Meta.t) ->
          reads.(!nr) <- m.fidx;
          incr nr);
      post =
        (fun ~dyn:_ _ (m : Vm.Meta.t) ->
          writes.(!nw) <- m.fidx;
          incr nw);
      at = Vm.Exec.no_hook;
    }
  in
  let r = Vm.Exec.run ~hooks ~budget:Vm.Exec.golden_budget w.prog in
  if
    r.status <> Vm.Exec.Finished
    || !nr <> w.checkpoints.read_cands
    || !nw <> w.checkpoints.write_cands
  then
    invalid_arg
      ("Incremental.attribution: the instrumented run diverged from the \
        golden run of " ^ w.name);
  { reads; writes }

(* Experiment indices of each function's partition, in index order;
   result.(fidx) lists the experiments whose first flip lands on an
   instruction of function fidx. *)
let partition (w : Core.Workload.t) (spec : Core.Spec.t) ~n ~seed =
  if n <= 0 then invalid_arg "Incremental.partition: n must be positive";
  let att = attribution w in
  let own =
    match spec.technique with Read -> att.reads | Write -> att.writes
  in
  let candidates = Core.Workload.candidates w spec in
  let base = Prng.of_seed seed in
  let nfuncs = Array.length w.prog.funcs in
  let parts = Array.make nfuncs [] in
  for i = n - 1 downto 0 do
    let inj =
      Core.Injector.create ~spec ~candidates (Prng.split_at base i)
    in
    match Core.Injector.first_target inj with
    | Some c -> parts.(own.(c)) <- i :: parts.(own.(c))
    | None -> assert false (* drawn at creation, nothing has fired *)
  done;
  Array.map Array.of_list parts

let chunks_of indices size =
  let n = Array.length indices in
  let size = max 1 size in
  let rec go lo acc =
    if lo >= n then List.rev acc
    else go (lo + size) (Array.sub indices lo (min size (n - lo)) :: acc)
  in
  go 0 []

let run ?(jobs = 1) ?shard_size ~store (w : Core.Workload.t)
    (spec : Core.Spec.t) ~n ~seed =
  if n <= 0 then invalid_arg "Incremental.run: n must be positive";
  let jobs = Core.Config.resolve_jobs jobs in
  let shard_size = Core.Config.resolve_shard_size shard_size in
  let label = w.name ^ " " ^ Core.Spec.label spec ^ " (incremental)" in
  Shards.span_if_tracing ("campaign " ^ label) @@ fun () ->
  if not (Core.Domain.equal spec.Core.Spec.domain Core.Domain.Reg) then begin
    (* Function-level profile reuse keys the first flip's candidate
       ordinal to the function that owns the instruction — a
       register-domain notion.  Mem/Code targets live on the raw dynamic
       axis and their effects are not function-local (a flipped byte or
       stored instruction is visible from anywhere), so caching would be
       unsound: run the fixed-N campaign without the store, counted as
       recomputed. *)
    let nfuncs = Array.length w.prog.funcs in
    let result, _ = Shards.campaign ~jobs ~shard_size w spec ~n ~seed in
    Obs.Metrics.add m_recompute n;
    Obs.Metrics.add m_funcs_recomputed nfuncs;
    ( result,
      {
        funcs_total = nfuncs;
        funcs_reused = 0;
        funcs_recomputed = nfuncs;
        exps_reused = 0;
        exps_recomputed = n;
      } )
  end
  else begin
    let funcs = Array.of_list w.modl.m_funcs in
    let nfuncs = Array.length funcs in
    if nfuncs <> Array.length w.prog.funcs then
      invalid_arg "Incremental.run: module/program function mismatch";
    let env = Ir.Fingerprint.environment w.modl in
    let fdigests = Array.map Ir.Fingerprint.func funcs in
    let parts = partition w spec ~n ~seed in
    let key_of fidx =
      Store.profile_key ~program:w.name
        ~func:(funcs.(fidx) : Ir.Func.t).f_name ~fdigest:fdigests.(fidx) ~env
        ~spec ~n ~seed
    in
    let profiles : Core.Campaign.profile option array =
      Array.make nfuncs None
    in
    let todo = ref [] in
    let exps_reused = ref 0 and funcs_reused = ref 0 in
    for fidx = 0 to nfuncs - 1 do
      match Store.lookup_profile store (key_of fidx) with
      | Some p when p.p_exps = Array.length parts.(fidx) ->
          profiles.(fidx) <- Some p;
          incr funcs_reused;
          exps_reused := !exps_reused + p.p_exps
      | Some _ (* stale size: treat as a miss *) | None ->
          todo := fidx :: !todo
    done;
    let todo = Array.of_list (List.rev !todo) in
    (* one slot per (function, chunk); merged in order afterwards so the
       result is independent of worker scheduling *)
    let tasks = ref [] in
    let chunk_slots =
      Array.map
        (fun fidx ->
          let chunks = Array.of_list (chunks_of parts.(fidx) shard_size) in
          let slots =
            Array.make (Array.length chunks) Core.Campaign.empty_profile
          in
          Array.iteri
            (fun ci chunk ->
              tasks :=
                (fun ~worker:_ ->
                  Shards.span_if_tracing
                    (Printf.sprintf "profile %s/%d %s"
                       (funcs.(fidx) : Ir.Func.t).f_name ci label)
                  @@ fun () ->
                  slots.(ci) <-
                    Core.Campaign.run_profile w spec ~seed ~indices:chunk)
                :: !tasks)
            chunks;
          (fidx, slots))
        todo
    in
    let tasks = Array.of_list (List.rev !tasks) in
    Pool.run ~jobs tasks;
    Array.iter
      (fun (fidx, slots) ->
        let p = Core.Campaign.sum_profiles (Array.to_list slots) in
        Store.add_profile store (key_of fidx) p;
        profiles.(fidx) <- Some p)
      chunk_slots;
    let exps_recomputed = n - !exps_reused in
    Obs.Metrics.add m_reuse !exps_reused;
    Obs.Metrics.add m_recompute exps_recomputed;
    Obs.Metrics.add m_funcs_reused !funcs_reused;
    Obs.Metrics.add m_funcs_recomputed (Array.length todo);
    let result =
      Core.Campaign.result_of_profiles ~workload_name:w.name spec ~n ~seed
        (Array.to_list profiles
        |> List.map (function Some p -> p | None -> assert false))
    in
    ( result,
      {
        funcs_total = nfuncs;
        funcs_reused = !funcs_reused;
        funcs_recomputed = Array.length todo;
        exps_reused = !exps_reused;
        exps_recomputed;
      } )
  end
