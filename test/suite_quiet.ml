(* The quiet suffix (Vm.Code): once a faulty run's injector is done, the
   rest of the run executes on the loop without candidate bookkeeping.  A
   counting frame hands over at the end of the iteration in which the run
   went quiet, and a frame entered while quiet starts on the quiet loop.
   One test per way a run goes quiet: each forces the last flip where
   that path triggers, and holds the production run to full execution
   ([Experiment.run_raw ~checkpoint:false]) and to the seed oracle in
   status, output, dyn_count and the full injection log. *)

module B = Ir.Build

let injection_equal = Suite_checkpoint.injection_equal
let result_equal = Suite_checkpoint.result_equal

(* [main] prints [outer i] for i below 12; [outer i] calls [inner (i + 5)]
   and adds i; [inner n] sums the squares below n in a loop.  Most
   candidates run with two calls in progress. *)
let nested_calls () =
  let m = B.create () in
  B.func m "inner" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      let acc = B.local_init f I32 (B.ci 0) in
      B.for_ f ~from_:(B.ci 0) ~below:(B.param f 0) (fun i ->
          B.set f acc (B.add f I32 (B.r acc) (B.mul f I32 i i)));
      B.ret f (Some (B.r acc)));
  B.func m "outer" ~params:[ I32 ] ~ret:(Some I32) (fun f ->
      let k = B.param f 0 in
      let s = B.call1 f "inner" [ B.add f I32 k (B.ci 5) ] in
      B.ret f (Some (B.add f I32 s k)));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 12) (fun i ->
          B.output f I32 (B.call1 f "outer" [ i ])));
  B.finish m

let workload = lazy (Core.Workload.make ~name:"nested" (nested_calls ()))

(* [main] prints [scale (float i)] for i below 8; [scale x] returns
   [x * 1.5 + 0.25].  Arguments and results cross the call in f64. *)
let float_calls () =
  let m = B.create () in
  B.func m "scale" ~params:[ F64 ] ~ret:(Some F64) (fun f ->
      let y = B.fmul f (B.param f 0) (B.cf 1.5) in
      B.ret f (Some (B.fadd f y (B.cf 0.25))));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 8) (fun i ->
          let x = B.cast f Sitofp ~from_ty:I32 ~to_ty:F64 i in
          B.output f F64 (B.call1 f "scale" [ x ])));
  B.finish m

let float_workload =
  lazy (Core.Workload.make ~name:"float-calls" (float_calls ()))

(* The [technique] candidate ordinals of [fname]'s instructions in the
   golden run, from the seed interpreter's hooks. *)
let ordinals (w : Core.Workload.t) technique fname =
  let fidx =
    Option.get
      (Array.find_index
         (fun (f : Vm.Program.lfunc) -> f.name = fname)
         w.prog.funcs)
  in
  let acc = ref [] and n = ref 0 in
  let note ~dyn:_ _ (m : Vm.Meta.t) =
    if m.fidx = fidx then acc := !n :: !acc;
    incr n
  in
  let hooks =
    match technique with
    | Core.Technique.Read ->
        { Vm.Exec.pre = note; post = Vm.Exec.no_hook; at = Vm.Exec.no_hook }
    | Core.Technique.Write ->
        { Vm.Exec.pre = Vm.Exec.no_hook; post = note; at = Vm.Exec.no_hook }
  in
  ignore
    (Vm.Exec.run ~hooks ~budget:Vm.Exec.golden_budget w.prog : Vm.Exec.result);
  List.rev !acc

(* One experiment from the forced first flip [first], three ways: in
   production, in full and on the seed oracle; and [Experiment.run_at]
   must report the production run.  Returns the production result. *)
let check_three label w spec ~first =
  let run exec =
    let inj =
      Core.Injector.create ~spec
        ~candidates:(Core.Workload.candidates w spec)
        ~first (Prng.of_seed 1L)
    in
    let r = exec w inj in
    (r, Core.Injector.injections inj)
  in
  let prod, log = run Core.Experiment.run_raw in
  List.iter
    (fun (how, (r, l)) ->
      result_equal (label ^ " " ^ how) r prod;
      Alcotest.(check bool)
        (label ^ " " ^ how ^ " injection log")
        true
        (List.equal injection_equal l log))
    [
      ("full", run (Core.Experiment.run_raw ~checkpoint:false));
      ("oracle", run Core.Experiment.run_oracle);
    ];
  let e = Core.Experiment.run_at w spec ~first (Prng.of_seed 1L) in
  Alcotest.(check int) (label ^ " run_at dyn") prod.dyn_count e.dyn_count;
  Alcotest.(check string) (label ^ " run_at output") prod.output e.output;
  prod

let single tech = Core.Spec.single tech
let m3w10 tech = Core.Spec.multi tech ~max_mbf:3 ~win:(Fixed 10)

(* Flips at each of [fname]'s [tech] ordinals, bit 0, under [spec]. *)
let flips_in w spec fname =
  let tech = spec.Core.Spec.technique in
  let ords = ordinals w tech fname in
  Alcotest.(check bool) (fname ^ " has candidates") true (ords <> []);
  List.iter
    (fun k ->
      ignore
        (check_three
           (Printf.sprintf "%s %s #%d" (Core.Spec.label spec) fname k)
           w spec ~first:(k, 0, 0)
          : Vm.Exec.result))
    ords

(* The last flip is an inject-on-read in [main]: the frame goes quiet in
   the pre-block, finishes the instruction (a branch, a call, an output)
   and hands over. *)
let test_read_pre_block () =
  let w = Lazy.force workload in
  flips_in w (single Read) "main";
  flips_in w (m3w10 Read) "main"

(* The last flip is an inject-on-write in [main], in the post-block, after
   the instruction: at a call's result, after the callee ran counting. *)
let test_write_post_block () =
  let w = Lazy.force workload in
  flips_in w (single Write) "main";
  flips_in w (m3w10 Write) "main"

(* The last flip lands in [inner], at its return among others: [inner]
   goes quiet, and [outer] and [main], still counting, hand over when
   their calls return. *)
let test_callee_goes_quiet () =
  let w = Lazy.force workload in
  List.iter
    (fun tech ->
      flips_in w (single tech) "inner";
      flips_in w (m3w10 tech) "inner")
    [ Core.Technique.Read; Write ]

(* Restores from points captured inside [inner], so the resumed stack has
   [outer] and [main] as outer frames; the flip two read candidates on
   goes quiet before [inner] returns, and each outer frame completes its
   call and continues on the quiet loop. *)
let test_resumed_outer_frames () =
  Thelpers.with_checkpoints ~interval:8 (Lazy.force workload) @@ fun w ->
  let set = w.Core.Workload.checkpoints in
  let resumed = ref 0 in
  Array.iter
    (fun (p : Vm.Checkpoint.point) ->
      if Array.length p.ck_stack = 3 then begin
        let target = p.ck_rc + 2 in
        (match Vm.Checkpoint.select set ~axis:`Read ~target with
        | Some q when Array.length q.ck_stack = 3 -> incr resumed
        | _ -> ());
        List.iter
          (fun spec ->
            ignore
              (check_three
                 (Printf.sprintf "resumed %s #%d" (Core.Spec.label spec)
                    target)
                 w spec ~first:(target, 0, 0)
                : Vm.Exec.result))
          [ single Read; m3w10 Read ]
      end)
    set.points;
  Alcotest.(check bool) "restores with two outer frames" true (!resumed > 10)

(* The code bits, as global ordinals, of the sites [pick] accepts, given
   the site's function, block and index in the block ([Meta.t]'s
   numbering, the terminator last). *)
let code_bits (w : Core.Workload.t) pick =
  let sites = w.code_sites in
  List.filter
    (fun g ->
      let site, _ = Vm.Codeflip.locate sites g in
      let fidx, bidx, idx = Vm.Codeflip.site_coords sites site in
      let f = w.prog.funcs.(fidx) in
      pick f f.blocks.(bidx) idx)
    (List.init (Vm.Codeflip.total_bits sites) Fun.id)

let is_call _ (blk : Vm.Program.lblock) idx =
  idx < Array.length blk.instrs
  && match blk.instrs.(idx) with Ir.Instr.Call _ -> true | _ -> false

let code_specs =
  [
    Core.Spec.single ~domain:Core.Domain.Code Read;
    Core.Spec.multi ~domain:Core.Domain.Code Read ~max_mbf:3 ~win:(Fixed 10);
  ]

(* Flips every bit in [bits], forced first, under each code spec, and
   returns how many of those runs the flip did not kill at decode. *)
let code_flips w bits =
  let ran = ref 0 in
  List.iter
    (fun spec ->
      List.iter
        (fun bit ->
          let r =
            check_three
              (Printf.sprintf "%s %s bit %d" w.Core.Workload.name
                 (Core.Spec.label spec) bit)
              w spec ~first:(0, 0, bit)
          in
          if r.status <> Vm.Exec.Trapped Ill_instr then incr ran)
        bits)
    code_specs;
  !ran

(* Code flips, landing before the first instruction, of every bit of the
   two call sites: a decodable one patches the call, which then runs on
   [Vm.Exec.step] into a callee entered while quiet (single flip), or
   with the last flips still pending (m = 3, w = 10), so the callee may
   go quiet and the patched call returns to a counting frame. *)
let test_patched_call_enters_quiet () =
  let w = Lazy.force workload in
  let ran = code_flips w (code_bits w is_call) in
  Alcotest.(check bool) "patched calls ran" true (ran > 0)

(* Code flips of every bit of the call site and of the callee's [ret] in
   an f64 function: the patched call's result and the patched return's
   value both cross between the compiled frames and [Vm.Exec.step] or
   [Vm.Exec.branch]. *)
let test_patched_float_call_and_ret () =
  let w = Lazy.force float_workload in
  let is_ret (f : Vm.Program.lfunc) (blk : Vm.Program.lblock) idx =
    f.name = "scale"
    && idx = Array.length blk.instrs
    && match blk.term with Ir.Instr.Ret (Some _) -> true | _ -> false
  in
  let calls = code_flips w (code_bits w is_call) in
  let rets = code_flips w (code_bits w is_ret) in
  Alcotest.(check bool) "patched f64 calls ran" true (calls > 0);
  Alcotest.(check bool) "patched f64 returns ran" true (rets > 0)

let suites =
  [
    ( "quiet suffix",
      [
        Alcotest.test_case "quiet in the read pre-block" `Quick
          test_read_pre_block;
        Alcotest.test_case "quiet in the write post-block" `Quick
          test_write_post_block;
        Alcotest.test_case "quiet in a callee, callers hand over" `Quick
          test_callee_goes_quiet;
        Alcotest.test_case "resumed outer frames complete quiet" `Quick
          test_resumed_outer_frames;
        Alcotest.test_case "patched call enters a quiet callee" `Quick
          test_patched_call_enters_quiet;
        Alcotest.test_case "patched f64 call and return" `Quick
          test_patched_float_call_and_ret;
      ] );
  ]
