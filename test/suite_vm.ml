(* End-to-end semantics tests for the VM: arithmetic, memory, traps,
   control flow, calls, candidate counting and fault hooks. *)

module B = Ir.Build

let run = Thelpers.run_main
let check_status = Alcotest.check Thelpers.status_testable

let test_arith_loop () =
  let r =
    run (fun f ->
        let acc = B.local_init f I32 (B.ci 0) in
        B.for_ f ~from_:(B.ci 0) ~below:(B.ci 100) (fun i ->
            B.set f acc (B.add f I32 (B.r acc) i));
        B.output f I32 (B.r acc))
  in
  check_status "finished" Finished r.status;
  Alcotest.(check string) "sum 0..99" (Thelpers.le32 4950) r.output

let test_signed_unsigned_ops () =
  let r =
    run (fun f ->
        (* -7 sdiv 2 = -3 (truncation); masked to 32 bits *)
        let a = B.sdiv f I32 (B.ci (-7)) (B.ci 2) in
        B.output f I32 a;
        (* 0xFFFFFFF9 udiv 2 = 0x7FFFFFFC *)
        let b = B.udiv f I32 (B.ci (-7)) (B.ci 2) in
        B.output f I32 b;
        (* -7 srem 2 = -1 *)
        let c = B.srem f I32 (B.ci (-7)) (B.ci 2) in
        B.output f I32 c;
        (* shifts *)
        let d = B.shl f I32 (B.ci 1) (B.ci 31) in
        B.output f I32 d;
        let e = B.ashr f I32 d (B.ci 31) in
        B.output f I32 e;
        let g = B.lshr f I32 d (B.ci 31) in
        B.output f I32 g)
  in
  check_status "finished" Finished r.status;
  let expect =
    String.concat ""
      (List.map Thelpers.le32 [ -3; 0x7FFFFFFC; -1; 0x80000000; -1; 1 ])
  in
  Alcotest.(check string) "values" expect r.output

let test_icmp_semantics () =
  let r =
    run (fun f ->
        (* 0xFFFFFFFF is -1 signed but big unsigned *)
        let big = B.ci 0xFFFFFFFF in
        let slt = B.slt f I32 big (B.ci 0) in
        B.output f I1 slt;
        let ult = B.ult f I32 big (B.ci 0) in
        B.output f I1 ult;
        let uge = B.uge f I32 big (B.ci 1) in
        B.output f I1 uge)
  in
  Alcotest.(check string) "slt=1 ult=0 uge=1" "\001\000\001" r.output

let test_float_ops_and_builtins () =
  let r =
    run (fun f ->
        let x = B.fadd f (B.cf 1.5) (B.cf 2.25) in
        B.output f F64 x;
        let s = B.call1 f "sqrt" [ B.cf 2.0 ] in
        B.output f F64 s;
        let c = B.fmul f (B.cf 3.0) (B.call1 f "cos" [ B.cf 0.0 ]) in
        B.output f F64 c)
  in
  check_status "finished" Finished r.status;
  let expect =
    Thelpers.le64_of_float 3.75
    ^ Thelpers.le64_of_float (sqrt 2.0)
    ^ Thelpers.le64_of_float 3.0
  in
  Alcotest.(check string) "float stream" expect r.output

let test_memory_roundtrip () =
  let m = B.create () in
  B.global_i32s m "data" [| 10; 20; 30; 40 |];
  B.global_zeros m "scratch" 64;
  B.func m "main" ~params:[] ~ret:None (fun f ->
      (* copy data reversed into scratch, then output scratch *)
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let src = B.gep f ~base:(B.glob "data") ~index:i ~scale:4 in
          let v = B.load f I32 src in
          let ri = B.sub f I32 (B.ci 3) i in
          let dst = B.gep f ~base:(B.glob "scratch") ~index:ri ~scale:4 in
          B.store f I32 ~value:v ~addr:dst);
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let p = B.gep f ~base:(B.glob "scratch") ~index:i ~scale:4 in
          B.output f I32 (B.load f I32 p)));
  let prog = Vm.Program.load (B.finish m) in
  let r = Vm.Exec.run ~budget:100000 prog in
  check_status "finished" Finished r.status;
  let expect = String.concat "" (List.map Thelpers.le32 [ 40; 30; 20; 10 ]) in
  Alcotest.(check string) "reversed" expect r.output

let test_byte_and_halfword_access () =
  let m = B.create () in
  B.global_u8s m "bytes" [| 0xAB; 0x01; 0xFF; 0x7F |];
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let p = B.gep f ~base:(B.glob "bytes") ~index:i ~scale:1 in
          B.output f I8 (B.load f I8 p));
      let h = B.load f I16 (B.glob "bytes") in
      B.output f I16 h);
  let prog = Vm.Program.load (B.finish m) in
  let r = Vm.Exec.run ~budget:100000 prog in
  Alcotest.(check string) "bytes then halfword" "\xAB\x01\xFF\x7F\xAB\x01" r.output

let test_segfault_null () =
  let r = run (fun f -> ignore (B.load f I32 (B.ci 0))) in
  check_status "segfault" (Trapped Segfault) r.status

let test_segfault_guard_gap () =
  let m = B.create () in
  B.global_i32s m "a" [| 1 |];
  B.func m "main" ~params:[] ~ret:None (fun f ->
      (* read past the end of the global, into the guard gap *)
      let p = B.off f (B.glob "a") 8 in
      ignore (B.load f I32 p));
  let prog = Vm.Program.load (B.finish m) in
  let r = Vm.Exec.run ~budget:1000 prog in
  check_status "segfault" (Trapped Segfault) r.status

let test_segfault_out_of_arena () =
  let r = run (fun f -> ignore (B.load f I32 (B.ci 0x7FFFFFF0))) in
  check_status "segfault" (Trapped Segfault) r.status

let test_misaligned () =
  let m = B.create () in
  B.global_i32s m "a" [| 1; 2 |];
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let p = B.off f (B.glob "a") 2 in
      ignore (B.load f I32 p));
  let prog = Vm.Program.load (B.finish m) in
  let r = Vm.Exec.run ~budget:1000 prog in
  check_status "misaligned" (Trapped Misaligned) r.status

let test_div_by_zero () =
  let r =
    run (fun f ->
        let z = B.local_init f I32 (B.ci 0) in
        ignore (B.sdiv f I32 (B.ci 5) (B.r z)))
  in
  check_status "div by zero" (Trapped Div_by_zero) r.status

let test_abort () =
  let r = run (fun f -> B.abort_ f) in
  check_status "abort" (Trapped Abort_called) r.status

let test_hang_budget () =
  let r =
    run ~budget:1000 (fun f ->
        B.while_ f ~cond:(fun () -> B.eq f I32 (B.ci 0) (B.ci 0)) ~body:(fun () -> ()))
  in
  check_status "hung" Hung r.status;
  Alcotest.(check bool) "stopped near budget" true (r.dyn_count <= 1001)

let test_recursion_and_stack_overflow () =
  (* fib via recursion *)
  let m = B.create () in
  B.func m "fib" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      let n = B.param f 0 in
      B.if_ f
        (B.slt f I32 n (B.ci 2))
        ~then_:(fun () -> B.ret f (Some n))
        ~else_:(fun () ->
          let a = B.call1 f "fib" [ B.sub f I32 n (B.ci 1) ] in
          let b = B.call1 f "fib" [ B.sub f I32 n (B.ci 2) ] in
          B.ret f (Some (B.add f I32 a b))));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.output f I32 (B.call1 f "fib" [ B.ci 15 ]));
  let prog = Vm.Program.load (B.finish m) in
  let r = Vm.Exec.run ~budget:1_000_000 prog in
  check_status "finished" Finished r.status;
  Alcotest.(check string) "fib 15" (Thelpers.le32 610) r.output;
  (* unbounded recursion traps *)
  let m2 = B.create () in
  B.func m2 "inf" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      B.ret f (Some (B.call1 f "inf" [ B.param f 0 ])));
  B.func m2 "main" ~params:[] ~ret:None (fun f ->
      ignore (B.call1 f "inf" [ B.ci 0 ]));
  let prog2 = Vm.Program.load (B.finish m2) in
  let r2 = Vm.Exec.run ~budget:1_000_000 prog2 in
  check_status "stack overflow" (Trapped Stack_overflow) r2.status

let test_select_and_casts () =
  let r =
    run (fun f ->
        let c = B.sgt f I32 (B.ci 5) (B.ci 3) in
        let v = B.select f I32 ~cond:c (B.ci 111) (B.ci 222) in
        B.output f I32 v;
        let t = B.cast f Trunc ~from_ty:I32 ~to_ty:I8 (B.ci 0x1FF) in
        B.output f I8 t;
        let sx = B.cast f Sext ~from_ty:I8 ~to_ty:I32 (B.ci 0x80) in
        B.output f I32 sx;
        let zx = B.cast f Zext ~from_ty:I8 ~to_ty:I32 (B.ci 0x80) in
        B.output f I32 zx;
        let fi = B.cast f Fptosi ~from_ty:F64 ~to_ty:I32 (B.cf (-3.9)) in
        B.output f I32 fi;
        let if_ = B.cast f Sitofp ~from_ty:I32 ~to_ty:F64 (B.ci (-5)) in
        B.output f F64 if_)
  in
  let expect =
    Thelpers.le32 111 ^ "\xFF" ^ Thelpers.le32 (-128) ^ Thelpers.le32 0x80
    ^ Thelpers.le32 (-3)
    ^ Thelpers.le64_of_float (-5.0)
  in
  Alcotest.(check string) "select/cast stream" expect r.output

let test_candidate_counts () =
  (* mov imm -> write candidate only; output reg -> read candidate only *)
  let r, reads, writes =
    Thelpers.seed_cands
    @@ Thelpers.load_main (fun f ->
        let a = B.local_init f I32 (B.ci 1) in
        (* Mov imm: write candidate *)
        let b = B.add f I32 (B.r a) (B.ci 2) in
        (* add: read+write *)
        B.output f I32 b (* output: read only *))
  in
  (* dyn: mov, add, output, ret = 4 *)
  Alcotest.(check int) "dyn" 4 r.dyn_count;
  Alcotest.(check int) "read cands" 2 reads;
  Alcotest.(check int) "write cands" 2 writes

let test_hooks_fire_and_flip () =
  (* flip bit 1 of the source of the output instruction: 1 -> 3 *)
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let a = B.local_init f I32 (B.ci 1) in
      B.output f I32 (B.r a));
  let prog = Vm.Program.load (B.finish m) in
  let fired = ref 0 in
  let hooks =
    {
      Vm.Exec.pre =
        (fun ~dyn:_ frame (m : Vm.Meta.t) ->
          incr fired;
          let reg = m.srcs.(0) in
          frame.ints.(reg) <- Ir.Bits.flip I32 ~bit:1 frame.ints.(reg));
      post = (fun ~dyn:_ _ _ -> ());
      at = Vm.Exec.no_hook;
    }
  in
  let r = Vm.Exec.run ~hooks ~budget:1000 prog in
  Alcotest.(check int) "pre fired once (output only)" 1 !fired;
  Alcotest.(check string) "flipped output" (Thelpers.le32 3) r.output

let test_post_hook_flips_dst () =
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let a = B.add f I32 (B.ci 4) (B.ci 4) in
      B.output f I32 a);
  let prog = Vm.Program.load (B.finish m) in
  let hooks =
    {
      Vm.Exec.pre = (fun ~dyn:_ _ _ -> ());
      post =
        (fun ~dyn:_ frame (m : Vm.Meta.t) ->
          if m.dst >= 0 then
            frame.ints.(m.dst) <- Ir.Bits.flip I32 ~bit:0 frame.ints.(m.dst));
      at = Vm.Exec.no_hook;
    }
  in
  let r = Vm.Exec.run ~hooks ~budget:1000 prog in
  Alcotest.(check string) "8 -> 9" (Thelpers.le32 9) r.output

let test_determinism_across_runs () =
  let m = B.create () in
  B.global_i32s m "d" (Array.init 32 (fun i -> (i * 37) land 0xFF));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let acc = B.local_init f I32 (B.ci 0) in
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 32) (fun i ->
          let p = B.gep f ~base:(B.glob "d") ~index:i ~scale:4 in
          B.set f acc (B.bxor f I32 (B.r acc) (B.load f I32 p)));
      B.output f I32 (B.r acc));
  let prog = Vm.Program.load (B.finish m) in
  let r1 = Vm.Exec.run ~budget:100000 prog in
  let r2 = Vm.Exec.run ~budget:100000 prog in
  Alcotest.(check string) "same output" r1.output r2.output;
  Alcotest.(check int) "same dyn count" r1.dyn_count r2.dyn_count;
  (* memory template is untouched by runs *)
  let r3 = Vm.Exec.run ~budget:100000 prog in
  Alcotest.(check string) "template unpolluted" r1.output r3.output

let test_memory_isolated_between_runs () =
  let m = B.create () in
  B.global_i32s m "cell" [| 5 |];
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let v = B.load f I32 (B.glob "cell") in
      B.output f I32 v;
      B.store f I32 ~value:(B.add f I32 v (B.ci 1)) ~addr:(B.glob "cell"));
  let prog = Vm.Program.load (B.finish m) in
  let r1 = Vm.Exec.run ~budget:1000 prog in
  let r2 = Vm.Exec.run ~budget:1000 prog in
  Alcotest.(check string) "both runs see 5" (r1.output : string) r2.output

let test_global_addr_lookup () =
  let m = B.create () in
  B.global_i32s m "a" [| 1 |];
  B.global_i32s m "b" [| 2 |];
  B.func m "main" ~params:[] ~ret:None (fun f -> B.ret f None);
  let prog = Vm.Program.load (B.finish m) in
  let a = Vm.Program.global_addr prog "a" in
  let b = Vm.Program.global_addr prog "b" in
  Alcotest.(check bool) "a below b with guard gap" true (b - a >= 4 + 64);
  Alcotest.(check bool) "null page respected" true (a >= 4096);
  Alcotest.(check bool) "unknown raises" true
    (match Vm.Program.global_addr prog "zz" with
    | exception Not_found -> true
    | _ -> false)

(* An access within its width of [max_int] traps like any other address
   past the arena: the bounds check must not overflow. *)
let test_addresses_near_max_int () =
  let d = Option.get (Bench_suite.Registry.find "crc32") in
  let prog = Vm.Program.load (d.build ()) in
  let m = Vm.Memory.clone prog.mem_template in
  let segfault what f =
    match f () with
    | () -> Alcotest.failf "%s: no trap" what
    | exception Vm.Trap.Trap Segfault -> ()
    | exception Vm.Trap.Trap t ->
        Alcotest.failf "%s: %s" what (Vm.Trap.to_string t)
  in
  for k = 0 to 7 do
    let addr = max_int - k in
    List.iter
      (fun width ->
        segfault (Printf.sprintf "read_int %d at max_int - %d" width k)
          (fun () -> ignore (Vm.Memory.read_int m ~width ~addr : int));
        segfault (Printf.sprintf "write_int %d at max_int - %d" width k)
          (fun () -> Vm.Memory.write_int m ~width ~addr 1))
      [ 1; 2; 4; 8 ];
    segfault (Printf.sprintf "read_f64 at max_int - %d" k) (fun () ->
        ignore (Vm.Memory.read_f64 m ~addr : float));
    segfault (Printf.sprintf "write_f64 at max_int - %d" k) (fun () ->
        Vm.Memory.write_f64 m ~addr 1.0)
  done

(* The Mem domain's location space: on every registry program, the k-th
   entry of the run table is the k-th byte a one-byte read does not
   segfault on. *)
let test_mapped_runs () =
  List.iter
    (fun (d : Bench_suite.Desc.t) ->
      let prog = Vm.Program.load (d.build ()) in
      let m = prog.mem_template in
      let mapped = Vm.Memory.mapped m in
      let k = ref 0 in
      for addr = 0 to Vm.Memory.size m - 1 do
        match Vm.Memory.read_int m ~width:1 ~addr with
        | _ ->
            if Vm.Memory.mapped_addr mapped !k <> addr then
              Alcotest.failf "%s: mapped byte %d is not %d" d.name !k addr;
            incr k
        | exception Vm.Trap.Trap Segfault -> ()
      done;
      Alcotest.(check int) (d.name ^ " mapped bytes") !k
        (Vm.Memory.mapped_count mapped))
    (Bench_suite.Registry.all
    @ List.filter_map Bench_suite.Registry.find [ "nn"; "nn-large" ])

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "arith loop" `Quick test_arith_loop;
        Alcotest.test_case "signed/unsigned ops" `Quick test_signed_unsigned_ops;
        Alcotest.test_case "icmp semantics" `Quick test_icmp_semantics;
        Alcotest.test_case "float ops and builtins" `Quick
          test_float_ops_and_builtins;
        Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
        Alcotest.test_case "byte/halfword access" `Quick
          test_byte_and_halfword_access;
        Alcotest.test_case "segfault: null" `Quick test_segfault_null;
        Alcotest.test_case "segfault: guard gap" `Quick test_segfault_guard_gap;
        Alcotest.test_case "segfault: out of arena" `Quick
          test_segfault_out_of_arena;
        Alcotest.test_case "misaligned" `Quick test_misaligned;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero;
        Alcotest.test_case "abort" `Quick test_abort;
        Alcotest.test_case "hang budget" `Quick test_hang_budget;
        Alcotest.test_case "recursion + stack overflow" `Quick
          test_recursion_and_stack_overflow;
        Alcotest.test_case "select and casts" `Quick test_select_and_casts;
        Alcotest.test_case "candidate counts" `Quick test_candidate_counts;
        Alcotest.test_case "read hook flips" `Quick test_hooks_fire_and_flip;
        Alcotest.test_case "write hook flips" `Quick test_post_hook_flips_dst;
        Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
        Alcotest.test_case "memory isolation" `Quick
          test_memory_isolated_between_runs;
        Alcotest.test_case "global layout" `Quick test_global_addr_lookup;
        Alcotest.test_case "addresses near max_int" `Quick
          test_addresses_near_max_int;
        Alcotest.test_case "mapped runs" `Quick test_mapped_runs;
      ] );
  ]
