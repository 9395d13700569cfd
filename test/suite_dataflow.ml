(* Tests for onebit.dataflow: CFG construction, liveness, reaching
   definitions, demanded-bits, the static candidate predictor, error-space
   pruning (including its dynamic soundness validation) and the linter. *)

open Ir.Instr

(* ---- hand-built fixtures ---- *)

let block name instrs term : Ir.Func.block =
  { b_name = name; b_instrs = Array.of_list instrs; b_term = term }

let func ?(name = "f") ?(params = []) ?(ret = None) reg_ty blocks : Ir.Func.t =
  {
    f_name = name;
    f_params = params;
    f_ret = ret;
    f_blocks = Array.of_list blocks;
    f_reg_ty = Array.of_list reg_ty;
  }

let modl fs : Ir.Func.modl = { m_funcs = fs; m_globals = [] }

(* entry -> then|else -> join; %2 assigned in both arms, printed at join *)
let diamond =
  func
    [ Ir.Ty.I32; I1; I32 ]
    [
      block "entry"
        [
          Mov { ty = I32; dst = 0; a = Imm 5 };
          Icmp { op = Slt; ty = I32; dst = 1; a = Reg 0; b = Imm 10 };
        ]
        (Cbr { cond = Reg 1; if_true = 1; if_false = 2 });
      block "then" [ Mov { ty = I32; dst = 2; a = Imm 1 } ] (Br 3);
      block "else" [ Mov { ty = I32; dst = 2; a = Imm 2 } ] (Br 3);
      block "join" [ Output { ty = I32; value = Reg 2 } ] (Ret None);
    ]

(* entry -> head -> body -> head | exit; counter %0 live around the loop *)
let loop =
  func
    [ Ir.Ty.I32; I1 ]
    [
      block "entry" [ Mov { ty = I32; dst = 0; a = Imm 0 } ] (Br 1);
      block "head"
        [ Icmp { op = Slt; ty = I32; dst = 1; a = Reg 0; b = Imm 10 } ]
        (Cbr { cond = Reg 1; if_true = 2; if_false = 3 });
      block "body" [ Binop { op = Add; ty = I32; dst = 0; a = Reg 0; b = Imm 1 } ] (Br 1);
      block "exit" [ Output { ty = I32; value = Reg 0 } ] (Ret None);
    ]

(* a non-empty block no path reaches *)
let orphan_tail =
  func [ Ir.Ty.I32 ]
    [
      block "entry" [ Output { ty = I32; value = Imm 7 } ] (Ret None);
      block "orphan" [ Mov { ty = I32; dst = 0; a = Imm 1 } ] (Br 0);
    ]

let test_cfg_diamond () =
  let cfg = Dataflow.Cfg.of_func diamond in
  Alcotest.(check int) "nblocks" 4 cfg.nblocks;
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ]
    (Array.to_list cfg.succs.(0) |> List.sort compare);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (Array.to_list cfg.preds.(3) |> List.sort compare);
  Alcotest.(check bool) "all reachable" true
    (Array.for_all (fun b -> b) cfg.reachable);
  Alcotest.(check int) "rpo covers all blocks" 4 (Array.length cfg.rpo);
  Alcotest.(check int) "rpo starts at entry" 0 cfg.rpo.(0);
  Alcotest.(check (list int)) "rpo is a permutation" [ 0; 1; 2; 3 ]
    (Array.to_list cfg.rpo |> List.sort compare);
  Alcotest.(check (list int)) "no unreachable blocks" []
    (Dataflow.Cfg.unreachable_blocks cfg)

let test_cfg_dedup_and_orphan () =
  let both_arms =
    func [ Ir.Ty.I1 ]
      [
        block "entry"
          [ Mov { ty = I1; dst = 0; a = Imm 1 } ]
          (Cbr { cond = Reg 0; if_true = 1; if_false = 1 });
        block "exit" [] (Ret None);
      ]
  in
  let cfg = Dataflow.Cfg.of_func both_arms in
  Alcotest.(check (list int)) "equal Cbr arms deduplicated" [ 1 ]
    (Array.to_list cfg.succs.(0));
  let cfg = Dataflow.Cfg.of_func orphan_tail in
  Alcotest.(check bool) "orphan not reachable" false cfg.reachable.(1);
  Alcotest.(check (list int)) "orphan listed" [ 1 ]
    (Dataflow.Cfg.unreachable_blocks cfg)

let test_liveness_diamond () =
  let cfg = Dataflow.Cfg.of_func diamond in
  let lv = Dataflow.Liveness.analyse cfg in
  let mem s r = Dataflow.Bitset.mem s r in
  Alcotest.(check bool) "%2 live into join" true
    (mem (Dataflow.Liveness.live_in lv 3) 2);
  Alcotest.(check bool) "%2 dead into then (redefined)" false
    (mem (Dataflow.Liveness.live_in lv 1) 2);
  Alcotest.(check bool) "%0 live before the icmp" true
    (mem (Dataflow.Liveness.live_before lv ~bidx:0 ~idx:1) 0);
  Alcotest.(check bool) "%0 dead before its own def" false
    (mem (Dataflow.Liveness.live_before lv ~bidx:0 ~idx:0) 0);
  Alcotest.(check bool) "%1 live before the branch" true
    (mem (Dataflow.Liveness.live_before lv ~bidx:0 ~idx:2) 1);
  Alcotest.(check bool) "nothing live at exit" true
    (Dataflow.Bitset.is_empty (Dataflow.Liveness.live_after lv ~bidx:3 ~idx:1))

let test_liveness_loop () =
  let cfg = Dataflow.Cfg.of_func loop in
  let lv = Dataflow.Liveness.analyse cfg in
  let mem s r = Dataflow.Bitset.mem s r in
  Alcotest.(check bool) "counter live around the back edge" true
    (mem (Dataflow.Liveness.live_out lv 2) 0);
  Alcotest.(check bool) "counter live into the head" true
    (mem (Dataflow.Liveness.live_in lv 1) 0);
  Alcotest.(check bool) "cond dead after the branch consumed it" false
    (mem (Dataflow.Liveness.live_in lv 2) 1)

let test_reaching_diamond () =
  let cfg = Dataflow.Cfg.of_func diamond in
  let rd = Dataflow.Reaching.analyse cfg in
  let defs = Dataflow.Reaching.reaching_of_reg rd ~bidx:3 ~idx:0 ~reg:2 in
  Alcotest.(check int) "two defs of %2 reach the join" 2 (List.length defs);
  Alcotest.(check bool) "neither is the entry pseudo-def" true
    (List.for_all (fun d -> not (Dataflow.Reaching.is_entry d)) defs);
  let defs0 = Dataflow.Reaching.reaching_of_reg rd ~bidx:0 ~idx:0 ~reg:0 in
  Alcotest.(check bool) "only the pseudo-def reaches the entry point" true
    (match defs0 with [ d ] -> Dataflow.Reaching.is_entry d | _ -> false)

(* ---- demanded bits ---- *)

let test_bitmask_masks () =
  (* %1 = %0 land 0xFF, printed: only the low byte of %0 is demanded *)
  let f =
    func
      [ Ir.Ty.I32; I32 ]
      [
        block "entry"
          [
            Mov { ty = I32; dst = 0; a = Imm 123 };
            Binop { op = And; ty = I32; dst = 1; a = Reg 0; b = Imm 0xFF };
            Output { ty = I32; value = Reg 1 };
          ]
          (Ret None);
      ]
  in
  let bm = Dataflow.Bitmask.analyse f in
  Alcotest.(check int) "and with imm masks the demand" 0xFF
    (Dataflow.Bitmask.demand_before bm ~bidx:0 ~idx:1).(0);
  (* %1 = %0 lsr 4, printed: bit j of %1 comes from bit j+4 of %0 *)
  let f =
    func
      [ Ir.Ty.I32; I32 ]
      [
        block "entry"
          [
            Mov { ty = I32; dst = 0; a = Imm 123 };
            Binop { op = Lshr; ty = I32; dst = 1; a = Reg 0; b = Imm 4 };
            Output { ty = I32; value = Reg 1 };
          ]
          (Ret None);
      ]
  in
  let bm = Dataflow.Bitmask.analyse f in
  Alcotest.(check int) "lshr shifts the demand up" 0xFFFFFFF0
    (Dataflow.Bitmask.demand_before bm ~bidx:0 ~idx:1).(0);
  (* %1 = %0 + 1; %2 = %1 land 0x10: carries propagate upward only, so
     the add demands bits 0..4 of %0 *)
  let f =
    func
      [ Ir.Ty.I32; I32; I32 ]
      [
        block "entry"
          [
            Mov { ty = I32; dst = 0; a = Imm 123 };
            Binop { op = Add; ty = I32; dst = 1; a = Reg 0; b = Imm 1 };
            Binop { op = And; ty = I32; dst = 2; a = Reg 1; b = Imm 0x10 };
            Output { ty = I32; value = Reg 2 };
          ]
          (Ret None);
      ]
  in
  let bm = Dataflow.Bitmask.analyse f in
  Alcotest.(check int) "add spreads demand downward" 0x1F
    (Dataflow.Bitmask.demand_before bm ~bidx:0 ~idx:1).(0);
  Alcotest.(check int) "dead register has zero demand" 0
    (Dataflow.Bitmask.demand_after bm ~bidx:0 ~idx:2).(1)

let test_prune_demands () =
  let f =
    func
      [ Ir.Ty.I32; I32 ]
      [
        block "entry"
          [
            Mov { ty = I32; dst = 0; a = Imm 7 };
            Binop { op = And; ty = I32; dst = 1; a = Reg 0; b = Imm 1 };
            Output { ty = I32; value = Reg 1 };
          ]
          (Ret None);
      ]
  in
  let t = Dataflow.Prune.analyse f in
  Alcotest.(check int) "write demand = bit 0 only" 1
    (Dataflow.Prune.write_demand t ~bidx:0 ~idx:0);
  Alcotest.(check int) "read demand at the and" 1
    (Dataflow.Prune.read_demand t ~bidx:0 ~idx:1 ~reg:0);
  Alcotest.(check bool) "bit 0 must run" true
    (Dataflow.Prune.classify_write t ~bidx:0 ~idx:0 ~bit:0 = Must_run);
  Alcotest.(check bool) "bit 5 provably benign" true
    (Dataflow.Prune.classify_write t ~bidx:0 ~idx:0 ~bit:5 = Provably_benign);
  Alcotest.(check bool) "read flip of a live bit must run" true
    (Dataflow.Prune.classify_read t ~bidx:0 ~idx:1 ~reg:0 ~bit:0 = Must_run);
  Alcotest.(check int) "31 of 32 bits benign at the write" 31
    (Dataflow.Prune.benign_bits Ir.Ty.I32 ~demand:1)

let test_prune_forwarding () =
  (* in the loop head, the icmp's destination is next read by the Cbr *)
  let t = Dataflow.Prune.analyse loop in
  Alcotest.(check (option int)) "icmp forwards to the terminator" (Some 1)
    (Dataflow.Prune.forwarded_write t ~bidx:1 ~idx:0);
  (* in the diamond, %2's write is read only in another block *)
  let t = Dataflow.Prune.analyse diamond in
  Alcotest.(check (option int)) "cross-block use does not forward" None
    (Dataflow.Prune.forwarded_write t ~bidx:1 ~idx:0)

(* ---- the linter ---- *)

let rules fs = List.map (fun (f : Dataflow.Lint.finding) -> f.rule) fs

let test_lint_fixtures () =
  Alcotest.(check bool) "diamond lints clean" true
    (Dataflow.Lint.check_func diamond = []);
  Alcotest.(check bool) "loop lints clean" true
    (Dataflow.Lint.check_func loop = []);
  Alcotest.(check bool) "orphan tail reported" true
    (rules (Dataflow.Lint.check_func orphan_tail)
    = [ Dataflow.Lint.Unreachable_code ]);
  (* dead store: the add's result is never read; the sdiv by constant 0 is
     not removable (it traps), so it must NOT be reported *)
  let dead_store =
    func
      [ Ir.Ty.I32; I32; I32 ]
      [
        block "entry"
          [
            Mov { ty = I32; dst = 0; a = Imm 1 };
            Binop { op = Add; ty = I32; dst = 1; a = Reg 0; b = Imm 1 };
            Binop { op = Sdiv; ty = I32; dst = 2; a = Reg 0; b = Imm 0 };
            Output { ty = I32; value = Reg 0 };
          ]
          (Ret None);
      ]
  in
  (match Dataflow.Lint.check_func dead_store with
  | [ { rule = Dead_store; detail; _ } ] ->
      Alcotest.(check bool) "names %1" true
        (Thelpers.contains detail "%1")
  | fs ->
      Alcotest.failf "expected exactly the %%1 dead store, got %d finding(s)"
        (List.length fs));
  let constant_branch =
    func [ Ir.Ty.I1 ]
      [
        block "entry"
          [ Mov { ty = I1; dst = 0; a = Imm 1 } ]
          (Cbr { cond = Reg 0; if_true = 1; if_false = 2 });
        block "a" [ Output { ty = I32; value = Imm 1 } ] (Ret None);
        block "b" [ Output { ty = I32; value = Imm 2 } ] (Ret None);
      ]
  in
  Alcotest.(check bool) "constant branch reported" true
    (List.mem Dataflow.Lint.Constant_branch
       (rules (Dataflow.Lint.check_func constant_branch)))

let test_lint_broken_fixture () =
  let text =
    In_channel.with_open_text "fixtures/broken.ir" In_channel.input_all
  in
  match Ir.Parse.modl text with
  | Error msg -> Alcotest.failf "broken.ir should parse and validate: %s" msg
  | Ok m ->
      let rs = rules (Dataflow.Lint.check m) in
      List.iter
        (fun r ->
          Alcotest.(check bool) (Dataflow.Lint.rule_name r) true
            (List.mem r rs))
        [
          Dataflow.Lint.Unreachable_code;
          Dataflow.Lint.Dead_store;
          Dataflow.Lint.Read_never_written;
          Dataflow.Lint.Constant_branch;
        ]

let test_lint_registry_clean () =
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      match Dataflow.Lint.check (e.build ()) with
      | [] -> ()
      | fs ->
          Alcotest.failf "%s: %s" e.name
            (String.concat "; " (List.map Dataflow.Lint.to_string fs)))
    (Bench_suite.Registry.all @ Bench_suite.Registry.large)

(* ---- validator strengthening ---- *)

let test_validate_cfg_facts () =
  let expect_err needle f =
    match Ir.Validate.check (modl [ f ]) with
    | Ok () -> Alcotest.failf "expected an error mentioning %S" needle
    | Error es ->
        Alcotest.(check bool) needle true
          (List.exists (fun e -> Thelpers.contains e needle) es)
  in
  (* entry terminating in unreachable without an abort *)
  expect_err "without an abort" (func [] [ block "entry" [] Unreachable ]);
  (* read on a reachable path before any definition *)
  expect_err "read before initialisation"
    (func [ Ir.Ty.I32; I32 ]
       [
         block "entry"
           [
             Binop { op = Add; ty = I32; dst = 1; a = Reg 0; b = Imm 1 };
             Output { ty = I32; value = Reg 1 };
           ]
           (Ret None);
       ]);
  (* defined on only one arm of a diamond *)
  expect_err "read before initialisation"
    (func
       [ Ir.Ty.I1; I32 ]
       [
         block "entry"
           [ Mov { ty = I1; dst = 0; a = Imm 1 } ]
           (Cbr { cond = Reg 0; if_true = 1; if_false = 2 });
         block "a" [ Mov { ty = I32; dst = 1; a = Imm 1 } ] (Br 3);
         block "b" [] (Br 3);
         block "join" [ Output { ty = I32; value = Reg 1 } ] (Ret None);
       ]);
  (* ... but defined on both arms is fine *)
  Alcotest.(check bool) "diamond def on both arms validates" true
    (Ir.Validate.check (modl [ diamond ]) = Ok ());
  (* reads in unreachable blocks are not flagged *)
  Alcotest.(check bool) "unreachable read tolerated" true
    (Ir.Validate.check (modl [ orphan_tail ]) = Ok ());
  (* branch out of range must not crash the must-init pass *)
  expect_err "out of range" (func [] [ block "entry" [] (Br 7) ])

(* ---- static candidate predictor vs the dynamic Table II counts ---- *)

let test_candidates_exact () =
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      let w = Core.Workload.make ~name:e.name (e.build ()) in
      let c =
        Dataflow.Candidates.predict (e.build ())
          ~profile:(Core.Workload.profile w)
      in
      Alcotest.(check int)
        (e.name ^ " reads") w.checkpoints.read_cands c.reads;
      Alcotest.(check int)
        (e.name ^ " writes") w.checkpoints.write_cands c.writes)
    Bench_suite.Registry.all

(* ---- liveness soundness against the dynamic trace ---- *)

let check_trace_live (w : Core.Workload.t) =
  let m = (Option.get (Bench_suite.Registry.find w.name)).build () in
  let lvs =
    Array.of_list
      (List.map
         (fun f -> Dataflow.Liveness.analyse (Dataflow.Cfg.of_func f))
         m.m_funcs)
  in
  let bad = ref 0 in
  let hooks =
    {
      Vm.Exec.pre =
        (fun ~dyn:_ _ (mt : Vm.Meta.t) ->
          Array.iter
            (fun reg ->
              if
                not
                  (Dataflow.Bitset.mem
                     (Dataflow.Liveness.live_before lvs.(mt.fidx)
                        ~bidx:mt.bidx ~idx:mt.idx)
                     reg)
              then incr bad)
            mt.srcs);
      post = (fun ~dyn:_ _ _ -> ());
      at = Vm.Exec.no_hook;
    }
  in
  ignore (Vm.Exec.run ~hooks ~budget:w.budget w.prog);
  Alcotest.(check int) (w.name ^ ": dynamic reads of dead registers") 0 !bad

let test_liveness_vs_trace () =
  List.iter
    (fun name ->
      check_trace_live
        (Core.Workload.make ~name
           ((Option.get (Bench_suite.Registry.find name)).build ())))
    [ "crc32"; "qsort"; "fft" ]

(* ---- pruning study: soundness and coverage ---- *)

let prune_study =
  lazy
    (Analysis.Study.make ~n:5 ~seed:3L ~programs:[ "crc32"; "histo"; "sha" ] ())

let test_prune_static_sound () =
  let rows =
    Analysis.Prune_static.compute ~validate_n:25 (Lazy.force prune_study)
  in
  Alcotest.(check int) "three programs" 3 (List.length rows);
  List.iter
    (fun (r : Analysis.Prune_static.row) ->
      Alcotest.(check int) (r.program ^ ": no misclassification") 0
        r.misclassified;
      Alcotest.(check bool) (r.program ^ ": benign read sites validated") true
        (r.read_checked > 0);
      let frac = Analysis.Prune_static.pruned_fraction r.summary in
      Alcotest.(check bool) (r.program ^ ": pruned fraction positive") true
        (frac > 0.0 && frac < 1.0))
    rows

(* A forwarded write experiment must reproduce the outcome of the read
   experiment it is predicted by: same register, same bit, the next read
   of the destination in the same block execution. *)
let test_forwarding_differential () =
  let name = "crc32" in
  let e = Option.get (Bench_suite.Registry.find name) in
  let w = Core.Workload.make ~name (e.build ()) in
  let m = e.build () in
  let prunes = Array.of_list (List.map Dataflow.Prune.analyse m.m_funcs) in
  let reads = ref [] and writes = ref [] in
  let hooks =
    {
      Vm.Exec.pre = (fun ~dyn _ mt -> reads := (dyn, mt) :: !reads);
      post = (fun ~dyn _ mt -> writes := (dyn, mt) :: !writes);
      at = Vm.Exec.no_hook;
    }
  in
  ignore (Vm.Exec.run ~hooks ~budget:w.budget w.prog);
  let reads = Array.of_list (List.rev !reads) in
  let writes = Array.of_list (List.rev !writes) in
  let outcome_t = Alcotest.testable (fun fmt o ->
      Format.pp_print_string fmt (Core.Outcome.to_string o)) ( = )
  in
  (* find a handful of forwarded write events spread over the run *)
  let checked = ref 0 in
  let step = max 1 (Array.length writes / 7) in
  let i = ref 0 in
  while !checked < 5 && !i < Array.length writes do
    let dyn_w, (mw : Vm.Meta.t) = writes.(!i) in
    (match Dataflow.Prune.forwarded_write prunes.(mw.fidx) ~bidx:mw.bidx ~idx:mw.idx with
    | None -> ()
    | Some j ->
        (* the matching read event: first occurrence of point j after the
           write, necessarily in the same block execution *)
        let rec find k =
          if k >= Array.length reads then None
          else
            let dyn_r, (mr : Vm.Meta.t) = reads.(k) in
            if
              dyn_r > dyn_w && mr.fidx = mw.fidx && mr.bidx = mw.bidx
              && mr.idx = j
            then Some (k, mr)
            else find (k + 1)
        in
        (match find 0 with
        | None -> Alcotest.fail "forwarded write with no subsequent read"
        | Some (r_ord, mr) ->
            let slot =
              let s = ref (-1) in
              Array.iteri
                (fun k reg -> if reg = mw.dst && !s < 0 then s := k)
                mr.srcs;
              !s
            in
            Alcotest.(check bool) "destination appears in the read" true
              (slot >= 0);
            let ty =
              (List.nth m.m_funcs mw.fidx).f_reg_ty.(mw.dst)
            in
            List.iter
              (fun bit ->
                let ow =
                  (Core.Experiment.run_at w (Core.Spec.single Write)
                     ~first:(!i, -1, bit)
                     (Prng.of_seed 11L))
                    .outcome
                in
                let orr =
                  (Core.Experiment.run_at w (Core.Spec.single Read)
                     ~first:(r_ord, slot, bit)
                     (Prng.of_seed 12L))
                    .outcome
                in
                Alcotest.check outcome_t "write outcome = forwarded read" orr
                  ow)
              [ 0; Dataflow.Prune.flip_width ty - 1 ];
            incr checked));
    i := !i + step
  done;
  Alcotest.(check bool) "found forwarded writes to check" true (!checked >= 3)

(* ---- qcheck: random programs ---- *)

(* Reuses the random straight-line program generator of the VM
   differential suite: any dynamically-executed read must be statically
   live at its program point. *)
let prop_liveness_sound =
  QCheck.Test.make ~name:"liveness covers every dynamic read" ~count:150
    (QCheck.make Suite_differential.case_gen) (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      let f = List.hd m.m_funcs in
      let lv = Dataflow.Liveness.analyse (Dataflow.Cfg.of_func f) in
      let ok = ref true in
      let hooks =
        {
          Vm.Exec.pre =
            (fun ~dyn:_ _ (mt : Vm.Meta.t) ->
              Array.iter
                (fun reg ->
                  if
                    not
                      (Dataflow.Bitset.mem
                         (Dataflow.Liveness.live_before lv ~bidx:mt.bidx
                            ~idx:mt.idx)
                         reg)
                  then ok := false)
                mt.srcs);
          post = (fun ~dyn:_ _ _ -> ());
      at = Vm.Exec.no_hook;
        }
      in
      ignore (Vm.Exec.run ~hooks ~budget:1_000_000 (Vm.Program.load m));
      !ok)

(* Injections forced at provably-benign read sites of a real program must
   classify Benign, whatever site and bit the generator picks. *)
let benign_env =
  lazy
    (let name = "histo" in
     let e = Option.get (Bench_suite.Registry.find name) in
     let w = Core.Workload.make ~name (e.build ()) in
     let m = e.build () in
     let prunes = Array.of_list (List.map Dataflow.Prune.analyse m.m_funcs) in
     let tys =
       Array.of_list
         (List.map (fun (f : Ir.Func.t) -> f.f_reg_ty) m.m_funcs)
     in
     let pool = ref [] in
     let ord = ref 0 in
     let hooks =
       {
         Vm.Exec.pre =
           (fun ~dyn:_ _ (mt : Vm.Meta.t) ->
             let i = !ord in
             incr ord;
             Array.iteri
               (fun slot reg ->
                 let ty = tys.(mt.fidx).(reg) in
                 let demand =
                   Dataflow.Prune.read_demand prunes.(mt.fidx) ~bidx:mt.bidx
                     ~idx:mt.idx ~reg
                 in
                 for bit = 0 to Dataflow.Prune.flip_width ty - 1 do
                   if Dataflow.Prune.is_benign ty ~demand ~bit then
                     pool := (i, slot, bit) :: !pool
                 done)
               mt.srcs);
         post = (fun ~dyn:_ _ _ -> ());
      at = Vm.Exec.no_hook;
       }
     in
     ignore (Vm.Exec.run ~hooks ~budget:w.budget w.prog);
     (w, Array.of_list !pool))

let prop_benign_sites_inject_benign =
  QCheck.Test.make ~name:"provably-benign sites always inject Benign"
    ~count:60
    (QCheck.make QCheck.Gen.(pair nat nat))
    (fun (site_i, seed_i) ->
      let w, pool = Lazy.force benign_env in
      let ord, slot, bit = pool.(site_i mod Array.length pool) in
      let e =
        Core.Experiment.run_at w (Core.Spec.single Read) ~first:(ord, slot, bit)
          (Prng.of_seed (Int64.of_int (seed_i + 1)))
      in
      e.outcome = Core.Outcome.Benign)

let suites =
  [
    ( "dataflow",
      [
        Alcotest.test_case "cfg: diamond" `Quick test_cfg_diamond;
        Alcotest.test_case "cfg: dedup + orphan" `Quick test_cfg_dedup_and_orphan;
        Alcotest.test_case "liveness: diamond" `Quick test_liveness_diamond;
        Alcotest.test_case "liveness: loop" `Quick test_liveness_loop;
        Alcotest.test_case "reaching: diamond" `Quick test_reaching_diamond;
        Alcotest.test_case "bitmask transfer functions" `Quick test_bitmask_masks;
        Alcotest.test_case "prune demands" `Quick test_prune_demands;
        Alcotest.test_case "prune forwarding" `Quick test_prune_forwarding;
        Alcotest.test_case "lint fixtures" `Quick test_lint_fixtures;
        Alcotest.test_case "lint broken.ir" `Quick test_lint_broken_fixture;
        Alcotest.test_case "lint: registry clean" `Quick test_lint_registry_clean;
        Alcotest.test_case "validate: cfg facts" `Quick test_validate_cfg_facts;
        Alcotest.test_case "candidates exact (15 programs)" `Slow
          test_candidates_exact;
        Alcotest.test_case "liveness vs dynamic trace" `Slow
          test_liveness_vs_trace;
        Alcotest.test_case "prune-static soundness" `Slow
          test_prune_static_sound;
        Alcotest.test_case "forwarded-write differential" `Slow
          test_forwarding_differential;
        QCheck_alcotest.to_alcotest prop_liveness_sound;
        QCheck_alcotest.to_alcotest prop_benign_sites_inject_benign;
      ] );
  ]
