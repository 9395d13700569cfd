(* Differential tests for the compiled execution pipeline (Vm.Code): the
   decode-once micro-op VM must be bit-identical to the seed interpreter
   (Vm.Exec) on golden runs, under fault injection, and across whole
   campaigns — same outputs, statuses, dynamic counts and injection
   logs — and a recording run must count the seed interpreter's
   candidates.  An eventless compiled run executes on the quiet runner,
   which runs whole dyn segments as closure chains, and a recording run
   on the counting loop, which single-steps, so both are pinned. *)

let golden_equal name (a : Vm.Exec.result) (b : Vm.Exec.result) =
  Alcotest.(check bool) (name ^ " status") true (a.status = b.status);
  Alcotest.(check string) (name ^ " output") a.output b.output;
  Alcotest.(check int) (name ^ " dyn") a.dyn_count b.dyn_count

(* The candidate totals a recording run leaves in its set against the
   seed interpreter's hook calls. *)
let cands_equal name (set : Vm.Checkpoint.set) ~reads ~writes =
  Alcotest.(check int) (name ^ " read cands") reads set.read_cands;
  Alcotest.(check int) (name ^ " write cands") writes set.write_cands

(* Every registry program (small and large inputs): golden runs agree
   between backends, for a plain compiled run and for the production one
   — [Workload.make]'s, with the checkpoint recorder attached — whose set
   ends in that same golden result and counts the seed interpreter's
   candidates.  The analysis-only block profile accounts for every
   dynamic instruction: each block entry executes the block's
   instructions and its terminator. *)
let test_registry_golden () =
  List.iter
    (fun (d : Bench_suite.Desc.t) ->
      let w = Core.Workload.make ~name:d.name (d.build ()) in
      let p = w.prog in
      let seed, reads, writes = Thelpers.seed_cands p in
      let comp = Vm.Code.run ~budget:Vm.Exec.golden_budget w.code in
      golden_equal d.name seed comp;
      golden_equal (d.name ^ " workload") seed w.golden;
      golden_equal (d.name ^ " checkpoint set") w.golden
        w.checkpoints.golden;
      cands_equal (d.name ^ " checkpoint set") w.checkpoints ~reads ~writes;
      let profile = Core.Workload.profile w in
      let profiled = ref 0 in
      Array.iteri
        (fun fidx (f : Vm.Program.lfunc) ->
          Array.iteri
            (fun bidx (b : Vm.Program.lblock) ->
              profiled :=
                !profiled
                + (profile.(fidx).(bidx) * (Array.length b.instrs + 1)))
            f.blocks)
        p.funcs;
      Alcotest.(check int) (d.name ^ " profile covers every instruction")
        w.golden.dyn_count !profiled)
    (Bench_suite.Registry.all @ Bench_suite.Registry.large)

(* Random straight-line programs (the generator of the seed-vs-evaluator
   differential suite) through both backends, compiled twice: eventless,
   on the quiet loop, and recording, on the counting loop, whose set must
   hold the seed interpreter's candidate counts. *)
let prop_random_programs =
  QCheck.Test.make ~name:"compiled pipeline matches seed interpreter"
    ~count:300
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      let p = Vm.Program.load m in
      let seed, reads, writes = Thelpers.seed_cands p in
      let code = Vm.Code.compile p in
      let quiet = Vm.Code.run ~budget:Vm.Exec.golden_budget code in
      let record = Vm.Checkpoint.recorder ~interval:16 in
      let counting = Vm.Code.run ~record ~budget:Vm.Exec.golden_budget code in
      let set = Vm.Checkpoint.finish record in
      let same (r : Vm.Exec.result) =
        seed.status = r.status
        && String.equal seed.output r.output
        && seed.dyn_count = r.dyn_count
      in
      same quiet && same counting && set.read_cands = reads
      && set.write_cands = writes)

(* ---- fault-injection differential ---- *)

let injection_equal (a : Core.Injector.injection) (b : Core.Injector.injection)
    =
  a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand && a.inj_loc = b.inj_loc && Core.Domain.equal a.inj_domain b.inj_domain
  && a.inj_ty = b.inj_ty && a.inj_slot = b.inj_slot && a.inj_bit = b.inj_bit
  && a.inj_weight = b.inj_weight

let workload =
  lazy
    (let d = Option.get (Bench_suite.Registry.find "crc32") in
     Core.Workload.make ~name:d.name ~expected_output:(d.reference ())
       (d.build ()))

(* One experiment, same (spec, seed, index), run through hooks on the
   seed interpreter and through the event schedule on the compiled
   pipeline: runs and full injection logs must be bit-identical. *)
let check_experiment w spec ~spacing ~base i =
  let mk () =
    let cands = Core.Workload.candidates w spec in
    Core.Injector.create ~spec ~candidates:cands ~spacing
      (Prng.split_at base i)
  in
  let inj_s = mk () in
  let r_s =
    Vm.Exec.run
      ~hooks:(Core.Injector.hooks inj_s)
      ~budget:w.Core.Workload.budget w.prog
  in
  let inj_c = mk () in
  let r_c =
    Vm.Code.run
      ~events:(Core.Injector.events inj_c)
      ~budget:w.Core.Workload.budget w.code
  in
  let label = Printf.sprintf "%s #%d" (Core.Spec.label spec) i in
  golden_equal label r_s r_c;
  Alcotest.(check int)
    (label ^ " activated")
    (Core.Injector.activated inj_s)
    (Core.Injector.activated inj_c);
  let log_s = Core.Injector.injections inj_s
  and log_c = Core.Injector.injections inj_c in
  Alcotest.(check int) (label ^ " log length") (List.length log_s)
    (List.length log_c);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (label ^ " injection") true (injection_equal a b))
    log_s log_c

let test_experiments_differential () =
  let w = Lazy.force workload in
  let base = Prng.of_seed 424242L in
  let specs =
    [
      Core.Spec.single Read;
      Core.Spec.single Write;
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 0);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 0);
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 1);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 1);
      Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 100);
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 100);
      Core.Spec.multi Read ~max_mbf:4 ~win:(Rnd (2, 50));
    ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun spacing ->
          for i = 0 to 14 do
            check_experiment w spec ~spacing ~base i
          done)
        [ `Faulty; `Golden ])
    specs

(* Whole campaigns, the oracle's and production's: results (counters,
   trap breakdown, activation histogram, per-experiment records) must be
   equal. *)
let test_campaign_differential () =
  let w = Lazy.force workload in
  List.iter
    (fun spec ->
      let a =
        Thelpers.oracle_campaign ~keep_experiments:true w spec ~n:60 ~seed:99L
      in
      let b = Core.Campaign.run ~keep_experiments:true w spec ~n:60 ~seed:99L in
      Alcotest.(check bool)
        (Core.Spec.label spec ^ " campaign equal")
        true
        (Core.Campaign.equal_result a b))
    [
      Core.Spec.single Read;
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 10);
      Core.Spec.multi Read ~max_mbf:5 ~win:(Rnd (2, 10));
    ]

(* ---- block-granular execution ---- *)

(* An event that never fires but keeps the run counting: the counting
   loop single-steps every instruction. *)
let never () =
  {
    Vm.Code.watch = `Dyn;
    ev_cand = max_int;
    ev_dyn = max_int - 1;
    handle = (fun ~dyn:_ ~cand:_ _ _ -> Alcotest.fail "the event fired");
  }

(* [code] against the seed interpreter on [prog], quiet and counting. *)
let both_forms name ~budget prog code =
  let seed = Vm.Exec.run ~budget prog in
  golden_equal (name ^ " quiet") seed (Vm.Code.run ~budget code);
  golden_equal (name ^ " counting") seed
    (Vm.Code.run ~events:(never ()) ~budget code)

(* Every budget from 0 to 1,000 stops a run where the seed interpreter
   stops it, whether the watchdog falls mid-block, mid-callee or at a
   block's end: on crc32, stringsearch (a call every 23 instructions) and
   qsort (recursion). *)
let test_budget_sweep () =
  List.iter
    (fun name ->
      let d = Option.get (Bench_suite.Registry.find name) in
      let prog = Vm.Program.load (d.build ()) in
      let code = Vm.Code.compile prog in
      for budget = 0 to 1000 do
        both_forms (Printf.sprintf "%s budget %d" name budget) ~budget prog code
      done)
    [ "crc32"; "stringsearch"; "qsort" ]

(* A trap with more instructions after it in its block reports its own
   dyn: a segfault, a division by zero and a guard, in [main] and in a
   callee that [main] calls mid-block. *)
let test_traps_mid_block () =
  let module B = Ir.Build in
  let trap kind f =
    match kind with
    | `Segfault -> ignore (B.load f I32 (B.ci 0))
    | `Div ->
        let z = B.local_init f I32 (B.ci 0) in
        ignore (B.sdiv f I32 (B.ci 5) (B.r z))
    | `Guard -> B.guard f I32 (B.ci 1) (B.mov f I32 (B.ci 2))
  in
  List.iter
    (fun (kind, label) ->
      List.iter
        (fun in_callee ->
          let m = B.create () in
          B.func m "callee" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
              let x = B.add f I32 (B.param f 0) (B.ci 1) in
              let y = B.mul f I32 x (B.ci 3) in
              if in_callee then trap kind f;
              B.ret f (Some (B.add f I32 y (B.ci 2))));
          B.func m "main" ~params:[] ~ret:None (fun f ->
              let a = B.add f I32 (B.ci 1) (B.ci 2) in
              let b = B.mul f I32 a (B.ci 3) in
              let r = B.call1 f "callee" [ b ] in
              let c = B.add f I32 r (B.ci 4) in
              if not in_callee then trap kind f;
              B.output f I32 (B.add f I32 c (B.ci 5));
              B.output f I32 c);
          let prog = Vm.Program.load (B.finish m) in
          let name =
            Printf.sprintf "%s in %s" label
              (if in_callee then "callee" else "main")
          in
          let seed = Vm.Exec.run ~budget:10_000 prog in
          Alcotest.(check bool) (name ^ " traps") true
            (match seed.status with Trapped _ -> true | _ -> false);
          both_forms name ~budget:10_000 prog (Vm.Code.compile prog))
        [ false; true ])
    [ (`Segfault, "segfault"); (`Div, "division by zero"); (`Guard, "guard") ]

(* A patched fork runs as the seed interpreter runs the flipped image,
   quiet and counting, and the workload's code still runs the golden
   run afterwards: forty flips spread over crc32's code bits, each on a
   fresh fork (undecodable ones are skipped). *)
let test_fork_isolation () =
  let w = Lazy.force workload in
  let sites = w.code_sites in
  let total = Vm.Codeflip.total_bits sites in
  let patched = ref 0 in
  for k = 0 to 39 do
    let site, bit = Vm.Codeflip.locate sites (k * (total / 40)) in
    let image = Vm.Codeflip.image w.prog in
    match Vm.Codeflip.flip sites image ~site ~bit with
    | exception Vm.Trap.Trap Ill_instr -> ()
    | p ->
        incr patched;
        let fork = Vm.Code.fork w.code in
        let fidx, bidx, idx = Vm.Codeflip.site_coords sites site in
        Vm.Code.patch fork ~fidx ~bidx ~idx p;
        both_forms
          (Printf.sprintf "site %d bit %d" site bit)
          ~budget:w.budget image fork;
        golden_equal "workload code after the fork" w.golden
          (Vm.Code.run ~budget:Vm.Exec.golden_budget w.code)
  done;
  Alcotest.(check bool) "some flips decode" true (!patched >= 20)

let suites =
  [
    ( "vm_code",
      [
        Alcotest.test_case "registry golden differential" `Quick
          test_registry_golden;
        QCheck_alcotest.to_alcotest prop_random_programs;
        Alcotest.test_case "experiment differential" `Quick
          test_experiments_differential;
        Alcotest.test_case "campaign differential" `Quick
          test_campaign_differential;
        Alcotest.test_case "budget sweep" `Quick test_budget_sweep;
        Alcotest.test_case "traps mid-block" `Quick test_traps_mid_block;
        Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
      ] );
  ]
