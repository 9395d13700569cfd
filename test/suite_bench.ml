(* Tests for the 15-program benchmark suite: every program's golden run
   must match its native reference bit for bit, and the structural
   properties the paper relies on (candidate asymmetry, determinism) must
   hold for each. *)

let run_entry (e : Bench_suite.Desc.t) =
  let prog = Vm.Program.load (e.build ()) in
  Vm.Exec.run ~budget:Vm.Exec.golden_budget prog

let golden_matches_reference (e : Bench_suite.Desc.t) () =
  let r = run_entry e in
  Alcotest.check Thelpers.status_testable "finishes" Finished r.status;
  let expected = e.reference () in
  Alcotest.(check int) "output length" (String.length expected)
    (String.length r.output);
  Alcotest.(check bool) "output matches reference" true
    (String.equal expected r.output)

let structure_sane (e : Bench_suite.Desc.t) () =
  let r, reads, writes = Thelpers.seed_cands (Vm.Program.load (e.build ())) in
  Alcotest.(check bool) "read cands > write cands (Table II asymmetry)" true
    (reads > writes);
  Alcotest.(check bool) "has work to inject into" true (reads > 1000);
  Alcotest.(check bool) "dyn count sane" true
    (r.dyn_count > 1000 && r.dyn_count < 1_000_000);
  Alcotest.(check bool) "produces output" true (String.length r.output > 0)

let deterministic (e : Bench_suite.Desc.t) () =
  let run () = Thelpers.seed_cands (Vm.Program.load (e.build ())) in
  let a, ar, aw = run () and b, br, bw = run () in
  Alcotest.(check string) "same output" a.output b.output;
  Alcotest.(check int) "same dyn count" a.dyn_count b.dyn_count;
  Alcotest.(check int) "same read cands" ar br;
  Alcotest.(check int) "same write cands" aw bw

let test_registry () =
  Alcotest.(check int) "15 programs" 15 (List.length Bench_suite.Registry.all);
  let names = Bench_suite.Registry.names in
  Alcotest.(check int) "unique names" 15
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "find hit" true
    (Bench_suite.Registry.find "crc32" <> None);
  Alcotest.(check bool) "find miss" true
    (Bench_suite.Registry.find "nope" = None);
  (* the paper's suite split: 11 MiBench + 4 Parboil *)
  let mibench, parboil =
    List.partition
      (fun (e : Bench_suite.Desc.t) -> e.suite = "mibench")
      Bench_suite.Registry.all
  in
  Alcotest.(check int) "11 mibench" 11 (List.length mibench);
  Alcotest.(check int) "4 parboil" 4 (List.length parboil)

let test_util_gen () =
  let a = Bench_suite.Util.gen ~seed:1 ~n:100 ~bound:50 in
  let b = Bench_suite.Util.gen ~seed:1 ~n:100 ~bound:50 in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun v -> v >= 0 && v < 50) a);
  let c = Bench_suite.Util.gen ~seed:2 ~n:100 ~bound:50 in
  Alcotest.(check bool) "seed-sensitive" true (a <> c);
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Util.gen: bound must be positive") (fun () ->
      ignore (Bench_suite.Util.gen ~seed:1 ~n:1 ~bound:0))

let test_util_gen_floats () =
  let a = Bench_suite.Util.gen_floats ~seed:3 ~n:200 ~scale:4.0 in
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun v -> v >= -4.0 && v < 4.0) a)

let test_out_encodings_match_vm () =
  (* The reference Out encoders must agree byte-for-byte with the VM's
     Output instruction. *)
  let module B = Ir.Build in
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.output f I8 (B.ci 0xAB);
      B.output f I16 (B.ci 0x1234);
      B.output f I32 (B.ci (-7));
      B.output f F64 (B.cf 3.25));
  let r = Vm.Exec.run ~budget:1000 (Vm.Program.load (B.finish m)) in
  let out = Bench_suite.Util.Out.create () in
  Bench_suite.Util.Out.u8 out 0xAB;
  Bench_suite.Util.Out.i16 out 0x1234;
  Bench_suite.Util.Out.i32 out (-7);
  Bench_suite.Util.Out.f64 out 3.25;
  Alcotest.(check string) "encodings agree"
    (Bench_suite.Util.Out.contents out)
    r.output

let test_basicmath_covers_both_branches () =
  (* The cubic solver must exercise both the three-root and one-root
     branches; count the i32 root-count markers in the output. *)
  let e = Option.get (Bench_suite.Registry.find "basicmath") in
  let r = run_entry e in
  let threes = ref 0 and ones = ref 0 in
  let pos = ref 0 in
  let n_cubics = 20 in
  for _ = 1 to n_cubics do
    let count =
      Char.code r.output.[!pos]
      lor (Char.code r.output.[!pos + 1] lsl 8)
      lor (Char.code r.output.[!pos + 2] lsl 16)
      lor (Char.code r.output.[!pos + 3] lsl 24)
    in
    (match count with
    | 3 ->
        incr threes;
        pos := !pos + 4 + (3 * 8)
    | 1 ->
        incr ones;
        pos := !pos + 4 + 8
    | c -> Alcotest.failf "unexpected root count %d" c)
  done;
  Alcotest.(check bool) "three-root branch hit" true (!threes > 0);
  Alcotest.(check bool) "one-root branch hit" true (!ones > 0)

let test_stringsearch_finds_expected () =
  (* sensor occurs 3 times starting at 40; gearbox and manifold never. *)
  let e = Option.get (Bench_suite.Registry.find "stringsearch") in
  let r = run_entry e in
  let i32_at off =
    Int32.to_int (Bytes.get_int32_le (Bytes.of_string r.output) off)
  in
  Alcotest.(check int) "sensor first" 40 (i32_at 0);
  Alcotest.(check int) "sensor count" 3 (i32_at 4);
  Alcotest.(check int) "gearbox absent" (-1) (i32_at (4 * 8));
  Alcotest.(check int) "gearbox count" 0 (i32_at ((4 * 8) + 4));
  Alcotest.(check int) "manifold absent" (-1) (i32_at (4 * 10))

let test_histo_saturates () =
  (* The hot cluster must drive at least one bin to exactly 255. *)
  let e = Option.get (Bench_suite.Registry.find "histo") in
  let r = run_entry e in
  let saturated = String.exists (fun c -> Char.code c = 255) r.output in
  Alcotest.(check bool) "a bin saturates" true saturated

let test_bfs_costs_valid () =
  let e = Option.get (Bench_suite.Registry.find "bfs") in
  let r = run_entry e in
  let b = Bytes.of_string r.output in
  let cost v = Int32.to_int (Bytes.get_int32_le b (4 * v)) in
  Alcotest.(check int) "source cost 0" 0 (cost 0);
  let all_bounded = ref true in
  for v = 0 to 127 do
    let c = cost v in
    if c < -1 || c > 127 then all_bounded := false
  done;
  Alcotest.(check bool) "costs bounded" true !all_bounded

let large_tests =
  List.map
    (fun (e : Bench_suite.Desc.t) ->
      Alcotest.test_case (e.name ^ ": golden = reference") `Slow
        (golden_matches_reference e))
    Bench_suite.Registry.large

let test_large_registry () =
  Alcotest.(check int) "15 large programs" 15
    (List.length Bench_suite.Registry.large);
  Alcotest.(check bool) "find large" true
    (Bench_suite.Registry.find "crc32-large" <> None);
  (* every large variant runs markedly longer than its small sibling *)
  List.iter2
    (fun (s : Bench_suite.Desc.t) (l : Bench_suite.Desc.t) ->
      Alcotest.(check string) "names correspond" (s.name ^ "-large") l.name)
    Bench_suite.Registry.all Bench_suite.Registry.large

let per_program_tests =
  List.concat_map
    (fun (e : Bench_suite.Desc.t) ->
      [
        Alcotest.test_case (e.name ^ ": golden = reference") `Quick
          (golden_matches_reference e);
        Alcotest.test_case (e.name ^ ": structure") `Quick (structure_sane e);
        Alcotest.test_case (e.name ^ ": deterministic") `Quick
          (deterministic e);
      ])
    Bench_suite.Registry.all

let suites =
  [
    ( "bench_suite",
      per_program_tests
      @ [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "util.gen" `Quick test_util_gen;
          Alcotest.test_case "util.gen_floats" `Quick test_util_gen_floats;
          Alcotest.test_case "out encodings = vm encodings" `Quick
            test_out_encodings_match_vm;
          Alcotest.test_case "basicmath: both cubic branches" `Quick
            test_basicmath_covers_both_branches;
          Alcotest.test_case "stringsearch: expected matches" `Quick
            test_stringsearch_finds_expected;
          Alcotest.test_case "histo: saturation" `Quick test_histo_saturates;
          Alcotest.test_case "bfs: cost vector valid" `Quick
            test_bfs_costs_valid;
          Alcotest.test_case "large registry" `Quick test_large_registry;
        ]
      @ large_tests );
  ]
