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

let m_skip = Obs.Metrics.counter "onebit_profile_skip_total"
let m_funcs_skipped = Obs.Metrics.counter "onebit_profile_funcs_skipped_total"

type stats = {
  funcs_total : int;
  funcs_reused : int;
  funcs_recomputed : int;
  funcs_skipped : int;
  exps_reused : int;
  exps_recomputed : int;
  exps_skipped : int;
}

(* Candidate-ordinal -> owning function index, for both techniques, from
   one instrumented fault-free run on the seed interpreter (its hooks
   fire once per candidate, carrying the instruction's static identity).
   The same run also records each read candidate's per-operand-slot
   equivalence-class weights (Barbosa et al., last-write distance) so a
   skipped partition's weighted sums can be synthesized without running
   anything.  Cached process-wide per workload digest, so the interpreter
   pass runs once per program rather than once per spec; the table only
   grows. *)
let attribution : (string, int array * int array * int array array) Hashtbl.t =
  Hashtbl.create 8

let attribution_lock = Mutex.create ()

let owners (w : Core.Workload.t) =
  Mutex.lock attribution_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock attribution_lock)
    (fun () ->
      match Hashtbl.find_opt attribution w.digest with
      | Some o -> o
      | None ->
          let reads = Array.make (max 1 w.golden.read_cands) (-1) in
          let writes = Array.make (max 1 w.golden.write_cands) (-1) in
          let rweights = Array.make (max 1 w.golden.read_cands) [||] in
          let nr = ref 0 and nw = ref 0 in
          let hooks =
            {
              Vm.Exec.pre =
                (fun ~dyn (frame : Vm.Exec.frame) (m : Vm.Meta.t) ->
                  reads.(!nr) <- m.fidx;
                  rweights.(!nr) <-
                    Array.map
                      (fun reg ->
                        let lw = frame.Vm.Exec.last_write.(reg) in
                        if lw < 0 then dyn + 1 else max 1 (dyn - lw))
                      m.srcs;
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
            || !nr <> w.golden.read_cands
            || !nw <> w.golden.write_cands
          then
            invalid_arg
              ("Incremental.owners: attribution run diverged from the \
                golden run of " ^ w.name);
          Hashtbl.replace attribution w.digest (reads, writes, rweights);
          (reads, writes, rweights))

let owners_of w (technique : Core.Technique.t) =
  let reads, writes, _ = owners w in
  match technique with Read -> reads | Write -> writes

let read_weights w =
  let _, _, rweights = owners w in
  rweights

(* Experiment indices of each function's partition, in index order;
   result.(fidx) lists the experiments whose first flip lands on an
   instruction of function fidx. *)
let partition (w : Core.Workload.t) (spec : Core.Spec.t) ~n ~seed =
  if n <= 0 then invalid_arg "Incremental.partition: n must be positive";
  let own = owners_of w spec.technique in
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

(* --- Provably-benign partition skipping ------------------------------

   A single-bit-flip experiment whose first (and only) flip lands on a
   function with no boundary value channel ([Summary.sdc_free_single]:
   constant-or-void return, no stores, no output) perturbs only that
   invocation's register file — the rest of the run is the golden run.
   If additionally no instruction reachable from the function can trap
   ([may_trap], transitive), no reachable function can loop or recurse
   (checked over every reachable summary, closing [may_loop]'s
   callee-self-recursion gap), and even the longest acyclic path through
   the function fits the watchdog budget, then every experiment in its
   partition is provably Benign with exactly one activation — the
   profile can be synthesized instead of executed. *)

(* Cost saturation bound: far above any real path, far below overflow. *)
let inf_cost = max_int / 4

let sat_add a b = if a >= inf_cost || b >= inf_cost then inf_cost else a + b

(* Worst-case dynamic instruction count of one invocation: a longest-path
   DP over the CFG, with callee costs folded into block weights.  Cycles
   and recursion saturate to [inf_cost] — callers reject those via the
   may_loop check anyway, this is defence in depth.  Builtin callees
   execute no IR instructions and cost 0. *)
let wc_cost_of (modl : Ir.Func.modl) =
  let by_name : (string, Ir.Func.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.Func.t) -> Hashtbl.replace by_name f.f_name f)
    modl.m_funcs;
  let memo : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec fn_cost stack name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
        if List.mem name stack then inf_cost (* recursion *)
        else
          let c =
            match Hashtbl.find_opt by_name name with
            | None -> 0 (* builtin *)
            | Some f -> func_cost (name :: stack) f
          in
          Hashtbl.replace memo name c;
          c
  and func_cost stack (f : Ir.Func.t) =
    let cfg = Dataflow.Cfg.of_func f in
    let nb = Array.length f.f_blocks in
    let bmemo = Array.make nb (-1) in
    let bactive = Array.make nb false in
    let rec bcost b =
      if bmemo.(b) >= 0 then bmemo.(b)
      else if bactive.(b) then inf_cost (* CFG cycle *)
      else begin
        bactive.(b) <- true;
        let blk = f.f_blocks.(b) in
        let w = ref (Array.length blk.Ir.Func.b_instrs + 1) in
        Array.iter
          (function
            | Ir.Instr.Call { callee; _ } -> w := sat_add !w (fn_cost stack callee)
            | _ -> ())
          blk.Ir.Func.b_instrs;
        let best =
          Array.fold_left
            (fun acc s -> max acc (bcost s))
            0 cfg.Dataflow.Cfg.succs.(b)
        in
        bactive.(b) <- false;
        let c = sat_add !w best in
        bmemo.(b) <- c;
        c
      end
    in
    bcost 0
  in
  fun name -> fn_cost [] name

(* may_loop = false for the function and every summary transitively
   reachable from it (a callee's self-recursion is in its own may_loop
   but not its callers'); unknown callees are builtins — loop-free. *)
let loops_free summaries (s : Dataflow.Summary.t) =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec go (s : Dataflow.Summary.t) =
    (not s.may_loop)
    && List.for_all
         (fun callee ->
           Hashtbl.mem seen callee
           ||
           (Hashtbl.replace seen callee ();
            match Dataflow.Summary.find summaries callee with
            | Some cs -> go cs
            | None -> true))
         s.callees
  in
  Hashtbl.replace seen s.fn ();
  go s

(* The synthesized profile of a skipped partition: all Benign, exactly
   one activation each, weighted sums replayed from the attribution
   run's recorded weights with the same PRNG draws [Injector.create] and
   its first-flip slot choice would make (weights are small integers, so
   the float sums are exact in any order). *)
let synth_profile (w : Core.Workload.t) (spec : Core.Spec.t) ~seed part =
  let nexp = Array.length part in
  let weighted_total =
    match spec.Core.Spec.technique with
    | Core.Technique.Write -> float_of_int nexp
    | Core.Technique.Read ->
        let rweights = read_weights w in
        let candidates = Core.Workload.candidates w spec in
        let base = Prng.of_seed seed in
        Array.fold_left
          (fun acc i ->
            let rng = Prng.split_at base i in
            let target = Prng.int rng candidates in
            let ws = rweights.(target) in
            let slot =
              if Array.length ws = 1 then 0 else Prng.int rng (Array.length ws)
            in
            acc +. float_of_int ws.(slot))
          0.0 part
  in
  {
    Core.Campaign.p_exps = nexp;
    p_benign = nexp;
    p_detected = 0;
    p_hang = 0;
    p_no_output = 0;
    p_sdc = 0;
    p_traps = [];
    p_activation = (if nexp = 0 then [] else [ (1, nexp) ]);
    p_weighted_sdc = 0.0;
    p_weighted_total = weighted_total;
  }

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
        funcs_skipped = 0;
        exps_reused = 0;
        exps_recomputed = n;
        exps_skipped = 0;
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
  let profiles : Core.Campaign.profile option array = Array.make nfuncs None in
  let todo = ref [] in
  let exps_reused = ref 0 and funcs_reused = ref 0 in
  let exps_skipped = ref 0 and funcs_skipped = ref 0 in
  (* Provably-benign skip predicate, computed lazily: only single-flip
     campaigns qualify (a second flip of a multi-flip experiment can land
     outside the owning function, so nothing is provable about it). *)
  let skip_ctx =
    lazy
      (let summaries = Dataflow.Summary.analyse w.modl in
       let wc_cost = wc_cost_of w.modl in
       (summaries, wc_cost))
  in
  let skippable fidx =
    spec.Core.Spec.max_mbf = 1
    &&
    let summaries, wc_cost = Lazy.force skip_ctx in
    match
      Dataflow.Summary.find summaries (funcs.(fidx) : Ir.Func.t).f_name
    with
    | None -> false
    | Some s ->
        Dataflow.Summary.sdc_free_single s
        && (not s.may_trap)
        && loops_free summaries s
        && sat_add w.golden.dyn_count (wc_cost s.fn) <= w.budget
  in
  for fidx = 0 to nfuncs - 1 do
    if skippable fidx then begin
      (* Synthesize and cache like any computed profile, so warm runs
         and [diff-campaign] compose it the ordinary way. *)
      let p = synth_profile w spec ~seed parts.(fidx) in
      Store.add_profile store (key_of fidx) p;
      profiles.(fidx) <- Some p;
      incr funcs_skipped;
      exps_skipped := !exps_skipped + p.Core.Campaign.p_exps
    end
    else
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
      let p =
        Array.fold_left Core.Campaign.merge_profiles
          Core.Campaign.empty_profile slots
      in
      Store.add_profile store (key_of fidx) p;
      profiles.(fidx) <- Some p)
    chunk_slots;
  let exps_recomputed = n - !exps_reused - !exps_skipped in
  Obs.Metrics.add m_reuse !exps_reused;
  Obs.Metrics.add m_recompute exps_recomputed;
  Obs.Metrics.add m_funcs_reused !funcs_reused;
  Obs.Metrics.add m_funcs_recomputed (Array.length todo);
  Obs.Metrics.add m_skip !exps_skipped;
  Obs.Metrics.add m_funcs_skipped !funcs_skipped;
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
      funcs_skipped = !funcs_skipped;
      exps_reused = !exps_reused;
      exps_recomputed;
      exps_skipped = !exps_skipped;
    } )
  end
