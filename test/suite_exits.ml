(* The compiled VM's early exits (Vm.Code): a faulty run that rejoins the
   golden run, at any dyn and past any output, finishes as the golden run
   does, and a hang whose state repeats exactly is fast-forwarded to the
   watchdog.  Each test makes an exit fire, or shows that it must not —
   the counters of [Vm.Code.exit_stats] prove which — and holds the
   result field-for-field, with the full injection log, to
   [Experiment.run_raw ~checkpoint:false], which arms no exit. *)

module B = Ir.Build

let injection_equal = Suite_checkpoint.injection_equal
let result_equal = Suite_checkpoint.result_equal

(* One experiment twice from the same injector recipe: with the exits
   (the production default) and in full.  Returns the production result. *)
let check_pair label w mk =
  let inj_full = mk () in
  let full = Core.Experiment.run_raw ~checkpoint:false w inj_full in
  let inj = mk () in
  let r = Core.Experiment.run_raw w inj in
  result_equal label full r;
  Alcotest.(check bool)
    (label ^ " injection log")
    true
    (List.equal injection_equal
       (Core.Injector.injections inj_full)
       (Core.Injector.injections inj));
  r

let nn = lazy (Suite_checkpoint.registry_workload "nn")

let campaign_pairs w spec ~n ~seed =
  let base = Prng.of_seed seed in
  let cands = Core.Workload.candidates w spec in
  for i = 0 to n - 1 do
    ignore
      (check_pair
         (Printf.sprintf "%s #%d" (Core.Spec.label spec) i)
         w
         (fun () ->
           Core.Injector.create ~spec ~candidates:cands (Prng.split_at base i))
        : Vm.Exec.result)
  done

(* nn's code domain hangs often: a patched instruction that keeps a loop
   from advancing repeats the same state until the watchdog. *)
let test_nn_code_cycles () =
  let w = Lazy.force nn in
  let s0 = Vm.Code.exit_stats () in
  campaign_pairs w
    (Core.Spec.multi ~domain:Core.Domain.Code Read ~max_mbf:3
       ~win:(Fixed 10))
    ~n:100 ~seed:1L;
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check bool) "cycle exits fired" true
    (s1.cycle_exits > s0.cycle_exits && s1.cycle_skipped > s0.cycle_skipped);
  Alcotest.(check int) "no golden exit in the code domain" s0.golden_exits
    s1.golden_exits

(* nn's mem flips mostly land in weights, which go dead after their last
   read: the run then rejoins the golden run. *)
let test_nn_mem_rejoins () =
  let w = Lazy.force nn in
  let s0 = Vm.Code.exit_stats () in
  campaign_pairs w
    (Core.Spec.multi ~domain:Core.Domain.Mem Read ~max_mbf:3 ~win:(Fixed 10))
    ~n:40 ~seed:1L;
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check bool) "golden exits fired" true
    (s1.golden_exits > s0.golden_exits
    && s1.golden_skipped > s0.golden_skipped)

(* A write flip of bit 0 of [step] (the first write candidate: 1 -> 0)
   stops [i] from advancing, so the loop never exits and emits a value
   every iteration. *)
let stuck_loop () =
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let step = B.local_init f I32 (B.ci 1) in
      let i = B.local_init f I32 (B.ci 0) in
      B.while_ f
        ~cond:(fun () -> B.ne f I32 (B.r i) (B.ci 8))
        ~body:(fun () ->
          B.output f I32 (B.r i);
          B.set f i (B.add f I32 (B.r i) (B.r step))));
  B.finish m

let test_stuck_loop_hangs_exactly () =
  let w = Core.Workload.make ~hang_factor:1000 ~name:"stuck" (stuck_loop ()) in
  let spec = Core.Spec.single Write in
  let mk () =
    Core.Injector.create ~spec
      ~candidates:(Core.Workload.candidates w spec)
      ~first:(0, 0, 0) (Prng.of_seed 1L)
  in
  let s0 = Vm.Code.exit_stats () in
  let r = check_pair "stuck loop" w mk in
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check Thelpers.status_testable) "hung" Vm.Exec.Hung r.status;
  Alcotest.(check int) "watchdog dyn" (w.budget + 1) r.dyn_count;
  Alcotest.(check bool) "output from every iteration" true
    (String.length r.output > 1000);
  Alcotest.(check int) "one cycle exit" (s0.cycle_exits + 1) s1.cycle_exits;
  Alcotest.(check bool) "most of the run skipped" true
    (s1.cycle_skipped - s0.cycle_skipped > w.budget / 2)

(* The same stuck loop, but counting its iterations in memory and
   clearing the registers that carried the count: only memory tells two
   iterations apart, so the cycle exit must not fire. *)
let stuck_memory_loop () =
  let m = B.create () in
  B.global_zeros m "count" 4;
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let step = B.local_init f I32 (B.ci 1) in
      let i = B.local_init f I32 (B.ci 0) in
      let reg = function Ir.Instr.Reg r -> r | _ -> assert false in
      B.while_ f
        ~cond:(fun () -> B.ne f I32 (B.r i) (B.ci 8))
        ~body:(fun () ->
          let old = B.load f I32 (B.glob "count") in
          let c = B.add f I32 old (B.ci 1) in
          B.store f I32 ~value:c ~addr:(B.glob "count");
          B.output f I32 c;
          B.set f (reg old) (B.ci 0);
          B.set f (reg c) (B.ci 0);
          B.set f i (B.add f I32 (B.r i) (B.r step))));
  B.finish m

let test_memory_counter_is_no_cycle () =
  let w =
    Core.Workload.make ~hang_factor:1000 ~name:"count" (stuck_memory_loop ())
  in
  let spec = Core.Spec.single Write in
  let mk () =
    Core.Injector.create ~spec
      ~candidates:(Core.Workload.candidates w spec)
      ~first:(0, 0, 0) (Prng.of_seed 1L)
  in
  let s0 = Vm.Code.exit_stats () in
  let r = check_pair "memory counter" w mk in
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check Thelpers.status_testable) "hung" Vm.Exec.Hung r.status;
  Alcotest.(check int) "no cycle exit" s0.cycle_exits s1.cycle_exits

(* [descend n step] recurses until [n] reaches 0.  Flipping [step] to 0
   makes every frame of the recursion identical but for its depth: the
   run must trap at the depth limit, not pass for a cycle and hang. *)
let endless_recursion () =
  let m = B.create () in
  B.func m "descend" ~params:[ I32; I32 ] ~ret:(Some I32) (fun f ->
      let n = B.param f 0 and step = B.param f 1 in
      B.if_ f
        (B.eq f I32 n (B.ci 0))
        ~then_:(fun () -> B.ret f (Some (B.ci 0)))
        ~else_:(fun () ->
          B.ret f
            (Some (B.call1 f "descend" [ B.sub f I32 n step; step ]))));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let step = B.local_init f I32 (B.ci 1) in
      B.output f I32 (B.call1 f "descend" [ B.ci 5; B.r step ]));
  B.finish m

let test_recursion_overflows () =
  let w =
    Core.Workload.make ~hang_factor:1000 ~name:"descend" (endless_recursion ())
  in
  let spec = Core.Spec.single Write in
  let first = (0, 0, 0) in
  let mk () =
    Core.Injector.create ~spec
      ~candidates:(Core.Workload.candidates w spec)
      ~first (Prng.of_seed 1L)
  in
  let r = check_pair "endless recursion" w mk in
  Alcotest.(check Thelpers.status_testable)
    "stack overflow" (Vm.Exec.Trapped Stack_overflow) r.status;
  let e = Core.Experiment.run_at w spec ~first (Prng.of_seed 1L) in
  Alcotest.(check string) "outcome"
    (Core.Outcome.to_string (Detected Stack_overflow))
    (Core.Outcome.to_string e.outcome)

(* Every stored-program flip of [descend], landing before the first
   instruction: some turn the recursive call into a call with the same
   arguments, whose frames then differ only in depth.  That call runs
   through the patched-instruction interpreter, so it must join the
   probe's shadow stack like any compiled call, or the recursion would
   pass for a cycle. *)
let test_code_flips_of_recursion () =
  let w =
    Core.Workload.make ~hang_factor:1000 ~name:"descend" (endless_recursion ())
  in
  let spec = Core.Spec.single ~domain:Core.Domain.Code Read in
  let overflows = ref 0 in
  for bit = 0 to Vm.Codeflip.total_bits w.code_sites - 1 do
    let mk () =
      Core.Injector.create ~spec
        ~candidates:(Core.Workload.candidates w spec)
        ~first:(0, 0, bit) (Prng.of_seed 1L)
    in
    let r = check_pair (Printf.sprintf "code bit %d" bit) w mk in
    if r.status = Vm.Exec.Trapped Stack_overflow then incr overflows
  done;
  Alcotest.(check bool) "some flips recurse without end" true (!overflows > 0)

(* A write flip on the write-candidate ordinal [ord], bit [bit]. *)
let write_flip w ~ord ~bit () =
  let spec = Core.Spec.single Write in
  Core.Injector.create ~spec
    ~candidates:(Core.Workload.candidates w spec)
    ~first:(ord, 0, bit) (Prng.of_seed 1L)

(* The exits taken by [f ()]: golden, shifted and cycle. *)
let exits_of f =
  let s0 = Vm.Code.exit_stats () in
  let r = f () in
  let s1 = Vm.Code.exit_stats () in
  ( r,
    ( s1.golden_exits - s0.golden_exits,
      s1.shifted_exits - s0.shifted_exits,
      s1.cycle_exits - s0.cycle_exits ) )

let exits_t = Alcotest.(triple int int int)

(* Outputs [3 i] for i below 1500.  Write candidates: 0 is [i]'s
   initialisation; iteration [m] writes the loop test at 1 + 4m, the
   product at 2 + 4m, and the next [i] at 3 + 4m and 4 + 4m. *)
let triple_loop () =
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 1500) (fun i ->
          B.output f I32 (B.mul f I32 i (B.ci 3))));
  B.finish m

(* A flipped product is printed, then overwritten: the run is back on
   the golden run at the same dyn, with different output.  It rejoins
   there, and ends SDC with its own output followed by the golden
   output. *)
let test_sdc_rejoins () =
  let w = Core.Workload.make ~name:"triple" (triple_loop ()) in
  let r, exits =
    exits_of (fun () ->
        check_pair "sdc rejoin" w (write_flip w ~ord:(2 + (4 * 10)) ~bit:3))
  in
  Alcotest.(check exits_t) "one golden exit" (1, 0, 0) exits;
  Alcotest.(check int) "golden length" w.golden.dyn_count r.dyn_count;
  Alcotest.(check string) "outcome" "sdc"
    (Core.Outcome.to_string
       (Core.Outcome.classify ~golden_output:w.golden.output r))

(* Counts [j] from [j0] up to 100, then sums 0..999 and prints the sum.
   The count loop takes 5 instructions an iteration and leaves the same
   registers however long it ran.  Write candidates: 0 is [j]'s
   initialisation; iteration [m] writes the test at 1 + 3m, [j + 1] at
   2 + 3m and [j] at 3 + 3m. *)
let delay_then_sum ~j0 =
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f ->
      let j = B.local_init f I32 (B.ci j0) in
      B.while_ f
        ~cond:(fun () -> B.ne f I32 (B.r j) (B.ci 100))
        ~body:(fun () -> B.set f j (B.add f I32 (B.r j) (B.ci 1)));
      let acc = B.local_init f I32 (B.ci 0) in
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 1000) (fun i ->
          B.set f acc (B.add f I32 (B.r acc) i));
      B.output f I32 (B.r acc));
  B.finish m

(* Flipping bit 5 of [j] after iteration 5 moves it by 32 one way or the
   other: 32 iterations, 160 instructions, fewer or more than golden. *)
let shifted_run ~j0 ?budget label =
  let w = Core.Workload.make ~name:"delay" (delay_then_sum ~j0) in
  let w = match budget with Some b -> { w with budget = b w } | None -> w in
  let r, exits =
    exits_of (fun () ->
        check_pair label w (write_flip w ~ord:(3 + (3 * 5)) ~bit:5))
  in
  (w, r, exits)

let test_negative_shift () =
  (* j: 6 -> 38, so the count loop ends 32 iterations early *)
  let w, r, exits = shifted_run ~j0:0 "negative shift" in
  Alcotest.(check exits_t) "one shifted exit" (0, 1, 0) exits;
  Alcotest.(check int) "160 fewer" (w.golden.dyn_count - 160) r.dyn_count;
  Alcotest.(check string) "golden output" w.golden.output r.output

let test_positive_shift () =
  (* j: 46 -> 14, so the count loop runs 32 iterations more *)
  let w, r, exits = shifted_run ~j0:40 "positive shift" in
  Alcotest.(check exits_t) "one shifted exit" (0, 1, 0) exits;
  Alcotest.(check int) "160 more" (w.golden.dyn_count + 160) r.dyn_count;
  Alcotest.(check string) "golden output" w.golden.output r.output

(* The positive shift under a budget the golden run fits and the shifted
   run does not: the full run hangs, so the probe must not rejoin. *)
let test_shift_past_budget () =
  let w, r, exits =
    shifted_run ~j0:40
      ~budget:(fun w -> w.golden.dyn_count + 100)
      "shift past the budget"
  in
  Alcotest.(check exits_t) "no exit" (0, 0, 0) exits;
  Alcotest.(check Thelpers.status_testable) "hung" Vm.Exec.Hung r.status;
  Alcotest.(check int) "watchdog dyn" (w.budget + 1) r.dyn_count

(* Every program of the study under the benchmark's eight register
   specs, and nn's memory and code domains, at a few experiments each. *)
let test_differential () =
  let s0 = Vm.Code.exit_stats () in
  let specs tech =
    [
      Core.Spec.single tech;
      Core.Spec.multi tech ~max_mbf:2 ~win:(Fixed 0);
      Core.Spec.multi tech ~max_mbf:3 ~win:(Fixed 10);
      Core.Spec.multi tech ~max_mbf:30 ~win:(Fixed 100);
    ]
  in
  List.iter
    (fun name ->
      let w = Suite_checkpoint.registry_workload name in
      List.iter
        (fun spec -> campaign_pairs w spec ~n:4 ~seed:3L)
        (specs Read @ specs Write))
    Bench_suite.Registry.names;
  List.iter
    (fun domain ->
      campaign_pairs (Lazy.force nn)
        (Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 10))
        ~n:10 ~seed:3L)
    [ Core.Domain.Mem; Core.Domain.Code ];
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check bool) "golden and shifted exits fired" true
    (s1.golden_exits > s0.golden_exits && s1.shifted_exits > s0.shifted_exits)

(* [~checkpoint:false] (and the seed oracle) arm no exit: the same nn
   experiments that take both exits above leave the counters alone. *)
let test_full_execution_arms_nothing () =
  let w = Lazy.force nn in
  let s0 = Vm.Code.exit_stats () in
  List.iter
    (fun spec ->
      let base = Prng.of_seed 1L in
      let cands = Core.Workload.candidates w spec in
      for i = 0 to 19 do
        let inj =
          Core.Injector.create ~spec ~candidates:cands (Prng.split_at base i)
        in
        ignore
          (Core.Experiment.run_raw ~checkpoint:false w inj : Vm.Exec.result)
      done;
      ignore
        (Thelpers.oracle_campaign w spec ~n:20 ~seed:1L : Core.Campaign.result))
    [
      Core.Spec.multi ~domain:Core.Domain.Code Read ~max_mbf:3 ~win:(Fixed 10);
      Core.Spec.multi ~domain:Core.Domain.Mem Read ~max_mbf:3 ~win:(Fixed 10);
    ];
  let s1 = Vm.Code.exit_stats () in
  Alcotest.(check int) "golden exits" s0.golden_exits s1.golden_exits;
  Alcotest.(check int) "shifted exits" s0.shifted_exits s1.shifted_exits;
  Alcotest.(check int) "cycle exits" s0.cycle_exits s1.cycle_exits;
  Alcotest.(check int) "golden skipped" s0.golden_skipped s1.golden_skipped;
  Alcotest.(check int) "shifted skipped" s0.shifted_skipped
    s1.shifted_skipped;
  Alcotest.(check int) "cycle skipped" s0.cycle_skipped s1.cycle_skipped

let suites =
  [
    ( "early exits",
      [
        Alcotest.test_case "nn code: cycle exits equal full runs" `Quick
          test_nn_code_cycles;
        Alcotest.test_case "nn mem: golden exits equal full runs" `Quick
          test_nn_mem_rejoins;
        Alcotest.test_case "stuck loop: hang fast-forwarded exactly" `Quick
          test_stuck_loop_hangs_exactly;
        Alcotest.test_case "memory-only progress is no cycle" `Quick
          test_memory_counter_is_no_cycle;
        Alcotest.test_case "endless recursion traps, not a cycle" `Quick
          test_recursion_overflows;
        Alcotest.test_case "code flips of a recursion equal full runs" `Quick
          test_code_flips_of_recursion;
        Alcotest.test_case "full execution arms no exit" `Quick
          test_full_execution_arms_nothing;
        Alcotest.test_case "sdc run rejoins past its corrupted output" `Quick
          test_sdc_rejoins;
        Alcotest.test_case "negative shift rejoins" `Quick test_negative_shift;
        Alcotest.test_case "positive shift rejoins" `Quick test_positive_shift;
        Alcotest.test_case "shift past the budget hangs" `Quick
          test_shift_past_budget;
        Alcotest.test_case "15 programs x 8 specs, nn mem/code equal full runs"
          `Quick test_differential;
      ] );
  ]
