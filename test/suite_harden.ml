(* Tests for the SWIFT-style hardening pass and the Guard instruction. *)

module B = Ir.Build

let test_guard_semantics () =
  let r =
    Thelpers.run_main (fun f ->
        B.guard f I32 (B.ci 5) (B.ci 5);
        let x = B.add f I32 (B.ci 2) (B.ci 2) in
        B.guard f I32 x (B.ci 4);
        B.output f I32 x)
  in
  Alcotest.check Thelpers.status_testable "passing guards" Finished r.status;
  let r2 =
    Thelpers.run_main (fun f ->
        let x = B.add f I32 (B.ci 2) (B.ci 2) in
        B.guard f I32 x (B.ci 5);
        B.output f I32 x)
  in
  Alcotest.check Thelpers.status_testable "failing guard traps"
    (Trapped Guard_violation) r2.status;
  Alcotest.(check string) "no output after failing guard" "" r2.output

let test_guard_float_bitwise () =
  let r =
    Thelpers.run_main (fun f ->
        (* NaN = NaN bitwise: a duplicated NaN must pass its guard *)
        let nan_v = B.fdiv f (B.cf 0.0) (B.cf 0.0) in
        let nan_w = B.fdiv f (B.cf 0.0) (B.cf 0.0) in
        B.guard f F64 nan_v nan_w;
        B.output f I32 (B.ci 1))
  in
  Alcotest.check Thelpers.status_testable "duplicated NaN passes" Finished
    r.status

let golden_of modl =
  Vm.Exec.run ~budget:Vm.Exec.golden_budget (Vm.Program.load modl)

let test_semantics_preserved_all_programs () =
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      List.iter
        (fun level ->
          let hardened = Harden.Swift.apply ~level (e.build ()) in
          let r = golden_of hardened in
          Alcotest.check Thelpers.status_testable
            (e.name ^ ": hardened run finishes") Finished r.status;
          Alcotest.(check bool)
            (e.name ^ ": hardened output = reference")
            true
            (String.equal r.output (e.reference ())))
        [ `Full; `Light ])
    Bench_suite.Registry.all

let test_overheads () =
  let e = Option.get (Bench_suite.Registry.find "qsort") in
  let base = e.build () in
  let full = Harden.Swift.apply ~level:`Full base in
  let light = Harden.Swift.apply ~level:`Light base in
  let o_full = Harden.Swift.static_overhead base full in
  let o_light = Harden.Swift.static_overhead base light in
  Alcotest.(check bool) "full costs more than light" true (o_full > o_light);
  Alcotest.(check bool) "duplication at least doubles computation" true
    (o_full > 1.5 && o_full < 4.0);
  (* register files double *)
  let f_base = List.hd base.m_funcs and f_full = List.hd full.m_funcs in
  Alcotest.(check int) "registers doubled"
    (2 * Ir.Func.reg_count f_base)
    (Ir.Func.reg_count f_full)

let test_hardened_validates () =
  List.iter
    (fun name ->
      let e = Option.get (Bench_suite.Registry.find name) in
      Alcotest.(check bool)
        (name ^ " hardened validates")
        true
        (Result.is_ok (Ir.Validate.check (Harden.Swift.apply (e.build ())))))
    [ "crc32"; "fft"; "dijkstra" ]

let test_coverage_improves () =
  (* The whole point: SDC% must drop sharply under hardening, and the
     drop must hold for multi-bit errors too. *)
  let e = Option.get (Bench_suite.Registry.find "spmv") in
  let expected = e.reference () in
  let base = Core.Workload.make ~name:"spmv" ~expected_output:expected (e.build ()) in
  let hard =
    Core.Workload.make ~name:"spmv+swift" ~expected_output:expected
      (Harden.Swift.apply (e.build ()))
  in
  List.iter
    (fun spec ->
      let cb = Core.Campaign.run base spec ~n:150 ~seed:5L in
      let ch = Core.Campaign.run hard spec ~n:150 ~seed:5L in
      Alcotest.(check bool)
        ("sdc drops under " ^ Core.Spec.label spec)
        true
        (Core.Campaign.sdc_pct ch < Core.Campaign.sdc_pct cb /. 2.0);
      Alcotest.(check bool) "guards fire" true
        (List.mem_assoc Vm.Trap.Guard_violation ch.traps))
    [
      Core.Spec.single Write;
      Core.Spec.multi Write ~max_mbf:3 ~win:(Fixed 1);
      Core.Spec.multi Read ~max_mbf:2 ~win:(Fixed 4);
    ]

let test_coverage_analysis_shape () =
  let rows =
    Analysis.Coverage.compute ~n:30 ~programs:[ "spmv" ] ()
  in
  (* 4 variants x 2 techniques *)
  Alcotest.(check int) "row count" 8 (List.length rows);
  List.iter
    (fun (r : Analysis.Coverage.row) ->
      Alcotest.(check int) "three specs" 3 (List.length r.results);
      match r.variant with
      | Analysis.Coverage.Baseline ->
          Alcotest.(check bool) "baseline overhead 1.0" true
            (Float.abs (r.dyn_overhead -. 1.0) < 1e-9)
      | Swift_full | Swift_light | Tmr ->
          Alcotest.(check bool) "hardened costs more" true
            (r.dyn_overhead > 1.2))
    rows

let test_tmr_semantics_preserved_all_programs () =
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      let r = golden_of (Harden.Tmr.apply (e.build ())) in
      Alcotest.check Thelpers.status_testable (e.name ^ ": tmr run finishes")
        Finished r.status;
      Alcotest.(check bool)
        (e.name ^ ": tmr output = reference")
        true
        (String.equal r.output (e.reference ())))
    Bench_suite.Registry.all

let test_tmr_corrects_instead_of_detects () =
  let e = Option.get (Bench_suite.Registry.find "crc32") in
  let expected = e.reference () in
  let base = Core.Workload.make ~name:"crc32" ~expected_output:expected (e.build ()) in
  let tmr =
    Core.Workload.make ~name:"crc32+tmr" ~expected_output:expected
      (Harden.Tmr.apply (e.build ()))
  in
  let spec = Core.Spec.single Write in
  let cb = Core.Campaign.run base spec ~n:150 ~seed:3L in
  let ct = Core.Campaign.run tmr spec ~n:150 ~seed:3L in
  Alcotest.(check bool) "sdc collapses" true
    (Core.Campaign.sdc_pct ct < Core.Campaign.sdc_pct cb /. 3.0);
  Alcotest.(check bool) "mass moves to benign (correction)" true
    (ct.benign > 3 * cb.benign);
  (* TMR detects nothing by itself: no guard violations *)
  Alcotest.(check bool) "no guard traps" true
    (not (List.mem_assoc Vm.Trap.Guard_violation ct.traps))

let test_tmr_register_bank_tripled_plus_scratch () =
  let e = Option.get (Bench_suite.Registry.find "qsort") in
  let base = e.build () in
  let tmr = Harden.Tmr.apply base in
  let f_base = List.hd base.m_funcs and f_tmr = List.hd tmr.m_funcs in
  Alcotest.(check bool) "at least tripled" true
    (Ir.Func.reg_count f_tmr >= 3 * Ir.Func.reg_count f_base)

let test_guard_is_read_candidate () =
  (* Guards read registers, so they enlarge the inject-on-read candidate
     set but never the inject-on-write set. *)
  let e = Option.get (Bench_suite.Registry.find "qsort") in
  let cands modl =
    let _, reads, writes = Thelpers.seed_cands (Vm.Program.load modl) in
    (reads, writes)
  in
  let base_reads, _ = cands (e.build ()) in
  let hard_reads, hard_writes = cands (Harden.Swift.apply (e.build ())) in
  Alcotest.(check bool) "read candidates grow" true (hard_reads > base_reads);
  Alcotest.(check bool) "asymmetry preserved" true (hard_reads > hard_writes)

let suites =
  [
    ( "harden",
      [
        Alcotest.test_case "guard semantics" `Quick test_guard_semantics;
        Alcotest.test_case "guard float bitwise" `Quick
          test_guard_float_bitwise;
        Alcotest.test_case "semantics preserved (all 15, both levels)" `Slow
          test_semantics_preserved_all_programs;
        Alcotest.test_case "overheads" `Quick test_overheads;
        Alcotest.test_case "hardened validates" `Quick test_hardened_validates;
        Alcotest.test_case "coverage improves" `Slow test_coverage_improves;
        Alcotest.test_case "coverage analysis shape" `Slow
          test_coverage_analysis_shape;
        Alcotest.test_case "guard is read candidate" `Quick
          test_guard_is_read_candidate;
        Alcotest.test_case "tmr: semantics preserved (all 15)" `Slow
          test_tmr_semantics_preserved_all_programs;
        Alcotest.test_case "tmr: corrects instead of detects" `Slow
          test_tmr_corrects_instead_of_detects;
        Alcotest.test_case "tmr: register bank" `Quick
          test_tmr_register_bank_tripled_plus_scratch;
      ] );
  ]
