(* Differential tests for golden-prefix checkpoint reuse (Vm.Checkpoint +
   Vm.Code.resume), the compiled backend's only way to run an
   experiment: a run that restores the fault-free prefix from a
   checkpoint must be bit-identical — same outcome, output, dynamic
   count and full injection log — to one that
   re-executes the program from dynamic instruction 0
   ([Experiment.run_raw ~checkpoint:false]) or runs on the seed oracle,
   for every fault domain, technique, window size and multiplicity; and
   the dirty-page undo log must rewind memory exactly even after traps.
   Each suite runs on a copy of its workload with a dense checkpoint set
   ([Thelpers.with_checkpoints]), so restores land near every possible
   stack shape. *)

let with_checkpoints = Thelpers.with_checkpoints

let injection_equal (a : Core.Injector.injection) (b : Core.Injector.injection)
    =
  a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand && a.inj_loc = b.inj_loc && Core.Domain.equal a.inj_domain b.inj_domain
  && a.inj_ty = b.inj_ty && a.inj_slot = b.inj_slot && a.inj_bit = b.inj_bit
  && a.inj_weight = b.inj_weight

let result_equal name (a : Vm.Exec.result) (b : Vm.Exec.result) =
  Alcotest.(check bool) (name ^ " status") true (a.status = b.status);
  Alcotest.(check string) (name ^ " output") a.output b.output;
  Alcotest.(check int) (name ^ " dyn") a.dyn_count b.dyn_count

(* One experiment through [run_raw] in full, then restored from the
   installed checkpoint set: identical runs and identical full injection
   logs. *)
let check_experiment w spec ~interval ~base i =
  let mk () =
    let cands = Core.Workload.candidates w spec in
    Core.Injector.create ~spec ~candidates:cands (Prng.split_at base i)
  in
  let inj_full = mk () in
  let r_full = Core.Experiment.run_raw ~checkpoint:false w inj_full in
  let inj_ck = mk () in
  let r_ck = Core.Experiment.run_raw w inj_ck in
  let label =
    Printf.sprintf "%s k=%d #%d" (Core.Spec.label spec) interval i
  in
  result_equal label r_full r_ck;
  Alcotest.(check int)
    (label ^ " activated")
    (Core.Injector.activated inj_full)
    (Core.Injector.activated inj_ck);
  let log_f = Core.Injector.injections inj_full
  and log_c = Core.Injector.injections inj_ck in
  Alcotest.(check int)
    (label ^ " log length")
    (List.length log_f) (List.length log_c);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (label ^ " injection") true (injection_equal a b))
    log_f log_c

let registry_workload name =
  let d = Option.get (Bench_suite.Registry.find name) in
  Core.Workload.make ~name ~expected_output:(d.reference ())
    (d.build ())

let domain_specs domain =
  [
    Core.Spec.single ~domain Read;
    Core.Spec.single ~domain Write;
    Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 0);
    Core.Spec.multi ~domain Write ~max_mbf:3 ~win:(Fixed 0);
    Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 1);
    Core.Spec.multi ~domain Write ~max_mbf:3 ~win:(Fixed 1);
    Core.Spec.multi ~domain Read ~max_mbf:4 ~win:(Fixed 100);
    Core.Spec.multi ~domain Write ~max_mbf:4 ~win:(Fixed 100);
  ]

(* Registry programs across all domains, both techniques, win sizes
   {0,1,100} and multiplicities {1,3,4}: qsort's recursion exercises
   mid-call-stack checkpoints, fft the float register files and large
   dirty sets. *)
let test_registry_differential () =
  let restores0 = snd (Vm.Checkpoint.stats ()) in
  List.iter
    (fun (name, interval) ->
      let w = registry_workload name in
      let base = Prng.of_seed 20260806L in
      with_checkpoints ~interval w (fun w ->
          List.iter
            (fun domain ->
              List.iter
                (fun spec ->
                  for i = 0 to 9 do
                    check_experiment w spec ~interval ~base i
                  done)
                (domain_specs domain))
            Core.Domain.all))
    [ ("crc32", 64); ("qsort", 128); ("fft", 512) ];
  let restores1 = snd (Vm.Checkpoint.stats ()) in
  Alcotest.(check bool)
    "checkpoints actually restored" true
    (restores1 > restores0)

(* Random straight-line programs x domains x techniques x win in
   {0,1,100} x m in {1,3,4}, restored vs full.  A tiny interval makes
   even these short programs cross capture thresholds. *)
let prop_random_differential =
  QCheck.Test.make ~name:"checkpointed run matches full execution" ~count:60
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      match Core.Workload.make ~name:"rand" m with
      | exception Invalid_argument _ ->
          true (* golden trapped/hung or no candidates: no workload *)
      | w ->
          let base = Prng.of_seed 7L in
          with_checkpoints ~interval:2 w (fun w ->
              List.for_all
                (fun domain ->
                  List.for_all
                    (fun technique ->
                      List.for_all
                        (fun (max_mbf, win) ->
                          let spec =
                            if max_mbf = 1 then
                              Core.Spec.single ~domain technique
                            else Core.Spec.multi ~domain technique ~max_mbf ~win
                          in
                          List.for_all
                            (fun i ->
                              let mk () =
                                let cands = Core.Workload.candidates w spec in
                                Core.Injector.create ~spec ~candidates:cands
                                  (Prng.split_at base i)
                              in
                              let i1 = mk () in
                              let r1 =
                                Core.Experiment.run_raw ~checkpoint:false w i1
                              in
                              let i2 = mk () in
                              let r2 = Core.Experiment.run_raw w i2 in
                              r1.Vm.Exec.status = r2.Vm.Exec.status
                              && String.equal r1.output r2.output
                              && r1.dyn_count = r2.dyn_count
                              && List.equal injection_equal
                                   (Core.Injector.injections i1)
                                   (Core.Injector.injections i2))
                            [ 0; 1; 2 ])
                        [
                          (1, Core.Win.Fixed 0);
                          (3, Fixed 0);
                          (3, Fixed 1);
                          (3, Fixed 100);
                          (4, Fixed 1);
                        ])
                    [ Core.Technique.Read; Core.Technique.Write ])
                Core.Domain.all))

(* Whole campaigns, production vs the oracle, in every domain. *)
let test_campaign_differential () =
  let w = registry_workload "qsort" in
  with_checkpoints ~interval:100 w (fun w ->
      List.iter
        (fun spec ->
          let oracle =
            Thelpers.oracle_campaign ~keep_experiments:true w spec ~n:60
              ~seed:99L
          in
          Alcotest.(check bool)
            (Core.Spec.label spec ^ " campaign equal")
            true
            (Core.Campaign.equal_result oracle
               (Core.Campaign.run ~keep_experiments:true w spec ~n:60
                  ~seed:99L)))
        (List.concat_map
           (fun domain ->
             [
               Core.Spec.single ~domain Read;
               Core.Spec.multi ~domain Write ~max_mbf:3 ~win:(Fixed 10);
               Core.Spec.multi ~domain Read ~max_mbf:5 ~win:(Rnd (2, 10));
             ])
           Core.Domain.all))

(* The engine at several worker counts must match the oracle's
   sequential campaign, in every domain. *)
let test_engine_differential () =
  let w = registry_workload "crc32" in
  with_checkpoints ~interval:200 w (fun w ->
      List.iter
        (fun domain ->
          let spec = Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 10) in
          let oracle =
            Thelpers.oracle_campaign ~keep_experiments:true w spec ~n:80
              ~seed:3L
          in
          List.iter
            (fun jobs ->
              let eng =
                Engine.run_campaign ~jobs ~shard_size:10 ~keep_experiments:true
                  w spec ~n:80 ~seed:3L
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d equals the oracle"
                   (Core.Domain.to_string domain)
                   jobs)
                true
                (Core.Campaign.equal_result oracle eng))
            [ 1; 4 ])
        Core.Domain.all)

(* ---- dirty-page undo log ---- *)

let test_memory_undo () =
  let region = Bytes.init 64 (fun i -> Char.chr (i land 0xFF)) in
  let tmpl =
    Vm.Memory.create_template ~size:4096 ~regions:[ (1024, region) ]
  in
  let m = Vm.Memory.with_undo tmpl in
  Alcotest.(check bool) "tracks undo" true (Vm.Memory.tracks_undo m);
  Alcotest.(check int) "clean at start" 0 (Vm.Memory.dirty_pages m);
  Vm.Memory.write_int m ~width:4 ~addr:1024 0xDEAD;
  Vm.Memory.write_int m ~width:8 ~addr:1056 77;
  Alcotest.(check bool) "dirty after writes" true (Vm.Memory.dirty_pages m > 0);
  (* Snapshot the touched pages, dirty some more, then restore. *)
  let snap = Vm.Memory.snapshot_pages m ~prev:[||] in
  Vm.Memory.write_int m ~width:4 ~addr:1028 123456;
  Vm.Memory.restore_pages m snap;
  Alcotest.(check int) "restored word" 0xDEAD
    (Vm.Memory.read_int m ~width:4 ~addr:1024);
  Alcotest.(check int) "second restored word" 77
    (Vm.Memory.read_int m ~width:8 ~addr:1056);
  Alcotest.(check int) "untouched word back to template"
    (Vm.Memory.read_int tmpl ~width:4 ~addr:1028)
    (Vm.Memory.read_int m ~width:4 ~addr:1028);
  (* Reset rewinds to the template image even after a trapped access. *)
  Vm.Memory.write_int m ~width:1 ~addr:1025 0xFF;
  (try Vm.Memory.write_int m ~width:4 ~addr:200 1 with
  | Vm.Trap.Trap Vm.Trap.Segfault -> ());
  (try Vm.Memory.write_int m ~width:4 ~addr:1026 1 with
  | Vm.Trap.Trap Vm.Trap.Misaligned -> ());
  Vm.Memory.reset m;
  Alcotest.(check int) "clean after reset" 0 (Vm.Memory.dirty_pages m);
  Alcotest.(check bool) "arena equals template" true
    (Bytes.equal
       (Vm.Memory.peek_bytes m ~addr:0 ~len:4096)
       (Vm.Memory.peek_bytes tmpl ~addr:0 ~len:4096));
  (* Guard semantics survive reset/restore: unmapped and misaligned
     accesses still trap. *)
  Alcotest.check_raises "guard page intact"
    (Vm.Trap.Trap Vm.Trap.Segfault) (fun () ->
      ignore (Vm.Memory.read_int m ~width:4 ~addr:0));
  Alcotest.check_raises "alignment intact"
    (Vm.Trap.Trap Vm.Trap.Misaligned) (fun () ->
      ignore (Vm.Memory.read_int m ~width:4 ~addr:1026))

(* A workload's memories are reused and rewound exactly across
   experiments that trap (Segfault from wild addresses is common under
   address-bit flips): hammer one workload through many checkpointed
   experiments, then check the memory they ran on replays the golden
   run. *)
let test_working_memory_after_traps () =
  let w = registry_workload "qsort" in
  let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 1) in
  let seen_trap = ref false in
  with_checkpoints ~interval:64 w (fun w ->
      let base = Prng.of_seed 11L in
      for i = 0 to 59 do
        let e = Core.Experiment.run w spec (Prng.split_at base i) in
        match e.outcome with
        | Detected _ -> seen_trap := true
        | _ -> ()
      done;
      Alcotest.(check bool) "some experiments trapped" true !seen_trap;
      Alcotest.(check int) "one memory for sequential runs" 1
        (List.length (Atomic.get w.mems));
      (* A golden replay on the same memory must still be exact. *)
      let g =
        Core.Workload.with_mem w (fun mem ->
            Vm.Memory.reset mem;
            Vm.Code.run ~mem ~budget:Vm.Exec.golden_budget w.code)
      in
      Alcotest.(check string) "golden output after trapped runs"
        w.golden.output g.output;
      Alcotest.(check int) "golden dyn after trapped runs"
        w.golden.dyn_count g.dyn_count)

(* A workload's memories outlive the pool domains that ran on them:
   campaigns at jobs 4 and an adaptive grid at jobs 2 leave it no more
   memories than it had runs in flight at once, and every result equals
   the sequential campaign's. *)
let test_workload_owns_memories () =
  let w = registry_workload "crc32" in
  let seed = 21L in
  let specs =
    [
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 10);
      Core.Spec.single ~domain:Core.Domain.Mem Read;
    ]
  in
  List.iter
    (fun spec ->
      let reference = Core.Campaign.run w spec ~n:40 ~seed in
      for round = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "%s jobs=4 round %d" (Core.Spec.label spec) round)
          true
          (Core.Campaign.equal_result reference
             (Engine.run_campaign ~jobs:4 ~shard_size:5 w spec ~n:40 ~seed))
      done)
    specs;
  let cells =
    List.map
      (fun spec ->
        {
          Engine.Adaptive.c_workload = w;
          c_spec = spec;
          c_cap = 60;
          c_seed = seed;
        })
      specs
  in
  let results, _ =
    Engine.Adaptive.run_grid ~jobs:2 ~shard_size:5 ~target:0.2 cells
  in
  List.iter
    (fun (cr : Engine.Adaptive.cell_result) ->
      Alcotest.(check bool)
        (Core.Spec.label cr.r_cell.c_spec ^ " adaptive")
        true
        (Core.Campaign.equal_result
           (Core.Campaign.run w cr.r_cell.c_spec ~n:cr.r_closed_at ~seed)
           cr.r_result))
    results;
  let held = List.length (Atomic.get w.mems) in
  Alcotest.(check bool)
    (Printf.sprintf "1 <= %d memories <= 4" held)
    true
    (held >= 1 && held <= 4)

(* Every point sits at the start of a block other than its function's
   entry — a pc only a jump leads to, where the golden-rejoin probe
   looks.  Compiled pcs lay the blocks out in order, each followed by
   its terminator. *)
let test_points_at_jump_targets () =
  List.iter
    (fun name ->
      let w = registry_workload name in
      let starts (f : Vm.Program.lfunc) =
        let pcs = ref [] and off = ref 0 in
        Array.iter
          (fun (b : Vm.Program.lblock) ->
            pcs := !off :: !pcs;
            off := !off + Array.length b.instrs + 1)
          f.blocks;
        List.filter (fun pc -> pc > 0) !pcs
      in
      let pts = w.checkpoints.Vm.Checkpoint.points in
      Alcotest.(check bool) (name ^ " has points") true (Array.length pts > 0);
      Array.iter
        (fun (p : Vm.Checkpoint.point) ->
          let top = p.ck_stack.(Array.length p.ck_stack - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "%s point at dyn %d" name p.ck_dyn)
            true
            (List.mem top.fs_pc (starts w.prog.funcs.(top.fs_fidx))))
        pts)
    [ "crc32"; "qsort"; "sha"; "nn" ]

(* Points keep only what a run can change.  A frame snapshot holds the
   function's real registers, and its float file only when the function
   has a float register; a point shares the previous point's copy of a
   page whose bytes did not change.  A shared copy must still be the
   memory at its point: the sampled points' images equal a run stopped
   by the watchdog at their dyn.  fft adds the float files. *)
let test_compact_points () =
  List.iter
    (fun name ->
      let w = registry_workload name in
      let pts = w.checkpoints.Vm.Checkpoint.points in
      let int_only = ref 0 and with_flt = ref 0 in
      Array.iter
        (fun (p : Vm.Checkpoint.point) ->
          Array.iter
            (fun (s : Vm.Checkpoint.frame_snap) ->
              let tys = w.prog.funcs.(s.fs_fidx).reg_ty in
              let nregs = Array.length tys in
              let has_flt = Array.exists Ir.Ty.is_float tys in
              incr (if has_flt then with_flt else int_only);
              let label = Printf.sprintf "%s dyn %d" name p.ck_dyn in
              Alcotest.(check int) (label ^ " ints") nregs
                (Array.length s.fs_ints);
              Alcotest.(check int) (label ^ " floats")
                (if has_flt then nregs else 0)
                (Array.length s.fs_flts))
            p.ck_stack)
        pts;
      Alcotest.(check bool)
        (name ^ " has the frames it is here for")
        true
        (if name = "fft" then !with_flt > 0 else !int_only > 0);
      let shares k =
        k > 0
        && Array.exists
             (fun (pg, b) ->
               Array.exists
                 (fun (q, b') -> q = pg && b == b')
                 pts.(k - 1).Vm.Checkpoint.ck_pages)
             pts.(k).ck_pages
      in
      let shared =
        List.filter shares (List.init (Array.length pts) Fun.id)
      in
      Alcotest.(check bool) (name ^ " shares page copies") true (shared <> []);
      let n = List.length shared in
      List.iteri
        (fun j k ->
          if j mod max 1 (n / 8) = 0 then begin
            let p = pts.(k) in
            let mem = Vm.Memory.with_undo w.prog.mem_template in
            let r = Vm.Code.run ~mem ~budget:p.ck_dyn w.code in
            Alcotest.(check bool)
              (Printf.sprintf "%s image at dyn %d" name p.ck_dyn)
              true
              (r.status = Vm.Exec.Hung
              && Vm.Memory.equal_image mem p.ck_pages ~live:(fun _ -> true))
          end)
        shared)
    [ "crc32"; "nn"; "fft" ]

(* Checkpoint selection: the chosen point never overshoots the target
   ordinal, and recording monotonically orders both ordinal axes. *)
let test_select () =
  let w = registry_workload "crc32" in
  with_checkpoints ~interval:50 w (fun w ->
      let set = w.Core.Workload.checkpoints in
      let pts = set.Vm.Checkpoint.points in
      Alcotest.(check bool) "has points" true (Array.length pts > 0);
      Array.iteri
        (fun i (p : Vm.Checkpoint.point) ->
          if i > 0 then begin
            let q = pts.(i - 1) in
            Alcotest.(check bool) "rc monotone" true (p.ck_rc >= q.ck_rc);
            Alcotest.(check bool) "wc monotone" true (p.ck_wc >= q.ck_wc);
            Alcotest.(check bool) "dyn monotone" true
              (p.ck_dyn > q.ck_dyn)
          end)
        pts;
      List.iter
        (fun target ->
          match Vm.Checkpoint.select set ~axis:`Read ~target with
          | Some p ->
              Alcotest.(check bool) "at or before target" true
                (p.ck_rc <= target)
          | None ->
              Alcotest.(check bool) "only before first point" true
                (pts.(0).ck_rc > target))
        [ 0; 1; 49; 50; 51; 1000; max_int ])

(* A record from a production campaign reproduces field-for-field
   through the full-execution replay path — what `onebit reproduce`
   runs. *)
let test_reproduce_from_campaign_record () =
  let w = registry_workload "crc32" in
  with_checkpoints ~interval:64 w (fun w ->
      List.iter
        (fun domain ->
          let spec = Core.Spec.multi ~domain Write ~max_mbf:3 ~win:(Fixed 10) in
          let n = 30 and seed = 13L in
          let r = Core.Campaign.run ~keep_experiments:true w spec ~n ~seed in
          List.iter
            (fun index ->
              let stored = r.Core.Campaign.experiments.(index) in
              let inj =
                Core.Injector.create ~spec
                  ~candidates:(Core.Workload.candidates w spec)
                  (Prng.split_at (Prng.of_seed seed) index)
              in
              let res = Core.Experiment.run_raw ~checkpoint:false w inj in
              let outcome =
                Core.Outcome.classify ~golden_output:w.golden.output res
              in
              let what =
                Printf.sprintf "%s #%d" (Core.Spec.label spec) index
              in
              Alcotest.(check bool) (what ^ " outcome") true
                (stored.outcome = outcome);
              Alcotest.(check int) (what ^ " activated") stored.activated
                (Core.Injector.activated inj);
              Alcotest.(check int) (what ^ " dyn") stored.dyn_count
                res.dyn_count;
              Alcotest.(check string) (what ^ " output") stored.output
                res.output;
              Alcotest.(check bool) (what ^ " first injection") true
                (match (stored.first, Core.Injector.first_injection inj) with
                | None, None -> true
                | Some a, Some b -> injection_equal a b
                | _ -> false))
            [ 0; 7; 19; 29 ])
        Core.Domain.all)

let suites =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "registry experiment differential" `Quick
          test_registry_differential;
        QCheck_alcotest.to_alcotest prop_random_differential;
        Alcotest.test_case "campaign differential" `Quick
          test_campaign_differential;
        Alcotest.test_case "engine differential" `Quick
          test_engine_differential;
        Alcotest.test_case "memory undo log" `Quick test_memory_undo;
        Alcotest.test_case "working memory after traps" `Quick
          test_working_memory_after_traps;
        Alcotest.test_case "workload owns its memories" `Quick
          test_workload_owns_memories;
        Alcotest.test_case "points sit at jump targets" `Quick
          test_points_at_jump_targets;
        Alcotest.test_case "compact points" `Quick test_compact_points;
        Alcotest.test_case "point selection" `Quick test_select;
        Alcotest.test_case "reproduce from campaign record" `Quick
          test_reproduce_from_campaign_record;
      ] );
  ]
