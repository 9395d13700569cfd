(* Differential tests for the compiled execution pipeline (Vm.Code): the
   decode-once micro-op VM must be bit-identical to the seed interpreter
   (Vm.Exec) on golden runs, under fault injection, and across whole
   campaigns — same outputs, statuses, dynamic counts and injection
   logs — and a recording run must count the seed interpreter's
   candidates.  An eventless compiled run executes on the quiet loop and
   a recording run on the counting loop, so both are pinned. *)

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

(* Whole campaigns through the backend switch: results (counters, trap
   breakdown, activation histogram, per-experiment records) must be
   equal. *)
let test_campaign_differential () =
  let w = Lazy.force workload in
  let saved = Core.Config.active_backend () in
  Fun.protect
    ~finally:(fun () -> Core.Config.set_backend saved)
    (fun () ->
      List.iter
        (fun spec ->
          let run b =
            Core.Config.set_backend b;
            Core.Campaign.run ~keep_experiments:true w spec ~n:60 ~seed:99L
          in
          let a = run Core.Config.Seed in
          let b = run Core.Config.Compiled in
          Alcotest.(check bool)
            (Core.Spec.label spec ^ " campaign equal")
            true
            (Core.Campaign.equal_result a b))
        [
          Core.Spec.single Read;
          Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 10);
          Core.Spec.multi Read ~max_mbf:5 ~win:(Rnd (2, 10));
        ])

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
      ] );
  ]
