(* Tests for the compositional / incremental campaign subsystem:
   function fingerprints (identity vs semantic vs environment digests),
   static propagation summaries and their sdc-free prediction, the
   experiment partition, profile storage, and the load-bearing equality —
   a campaign composed from per-function profiles is bit-identical to a
   full run, whether the profiles were just computed or reused from a
   store across a semantic-preserving edit. *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onebit-inc-test-%d-%d" (Unix.getpid ()) !counter)

let with_store f =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

let replace ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length s and ns = String.length sub in
  let i = ref 0 in
  while !i < n do
    if !i + ns <= n && String.sub s !i ns = sub then begin
      Buffer.add_string b by;
      i := !i + ns
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let parse_exn text =
  match Ir.Parse.modl text with Ok m -> m | Error e -> failwith e

let fixture_text =
  lazy (In_channel.with_open_text "fixtures/inc.ir" In_channel.input_all)

let fixture_modl = lazy (parse_exn (Lazy.force fixture_text))

(* The label-renamed variant: same behaviour, same semantic digest, a
   different identity digest for [scale] only. *)
let renamed_modl =
  lazy (parse_exn (replace ~sub:"scale_body" ~by:"renamed_b" (Lazy.force fixture_text)))

let fixture_workload = lazy (Core.Workload.make ~name:"inc" (Lazy.force fixture_modl))

let func_exn m name = Option.get (Ir.Func.find_func m name)

let fidx_of (m : Ir.Func.modl) name =
  let rec go i = function
    | [] -> invalid_arg "fidx_of"
    | (f : Ir.Func.t) :: _ when f.f_name = name -> i
    | _ :: fs -> go (i + 1) fs
  in
  go 0 m.m_funcs

(* ---- fingerprints ---- *)

let test_identity_vs_semantic () =
  let m = Lazy.force fixture_modl and m' = Lazy.force renamed_modl in
  let scale = func_exn m "scale" and scale' = func_exn m' "scale" in
  Alcotest.(check bool) "identity digest changes on label rename" false
    (Ir.Fingerprint.func scale = Ir.Fingerprint.func scale');
  Alcotest.(check string) "semantic digest survives label rename"
    (Ir.Fingerprint.func_semantic scale)
    (Ir.Fingerprint.func_semantic scale');
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " identity digest untouched")
        (Ir.Fingerprint.func (func_exn m name))
        (Ir.Fingerprint.func (func_exn m' name)))
    [ "mix"; "main" ];
  Alcotest.(check string) "environment digest survives label rename"
    (Ir.Fingerprint.environment m)
    (Ir.Fingerprint.environment m');
  Alcotest.(check bool) "module digest does change" false
    (Ir.Fingerprint.modl m = Ir.Fingerprint.modl m')

let test_semantic_tracks_behaviour () =
  let m = Lazy.force fixture_modl in
  let m' = parse_exn (replace ~sub:"65535" ~by:"65534" (Lazy.force fixture_text)) in
  let scale = func_exn m "scale" and scale' = func_exn m' "scale" in
  Alcotest.(check bool) "identity digest changes on constant edit" false
    (Ir.Fingerprint.func scale = Ir.Fingerprint.func scale');
  Alcotest.(check bool) "semantic digest changes on constant edit" false
    (Ir.Fingerprint.func_semantic scale = Ir.Fingerprint.func_semantic scale');
  Alcotest.(check bool) "environment digest changes on constant edit" false
    (Ir.Fingerprint.environment m = Ir.Fingerprint.environment m')

let test_reachable () =
  let m = Lazy.force fixture_modl in
  Alcotest.(check (list string))
    "all three reachable from main" [ "scale"; "mix"; "main" ]
    (Ir.Fingerprint.reachable m);
  Alcotest.(check (list string))
    "mix alone from mix" [ "mix" ]
    (Ir.Fingerprint.reachable ~entry:"mix" m)

(* ---- summaries ---- *)

let summaries = lazy (Dataflow.Summary.analyse (Lazy.force fixture_modl))

let summary_exn name =
  Option.get (Dataflow.Summary.find (Lazy.force summaries) name)

let test_summary_fixture () =
  let scale = summary_exn "scale" in
  Alcotest.(check int) "scale returns a register: full corrupt mask"
    0xffffffff scale.ret_corrupt;
  Alcotest.(check bool) "scale loops" true scale.may_loop;
  Alcotest.(check bool) "scale touches no memory" false scale.corrupts_memory;
  Alcotest.(check bool) "scale emits nothing" false scale.emits_output;
  (* the `and 65535' bounds the demand on the accumulator, hence on the
     parameter feeding it *)
  Alcotest.(check (array int)) "scale param demand refined" [| 0xffff |]
    scale.params_demanded;
  let mix = summary_exn "mix" in
  Alcotest.(check (array int)) "mix param demands refined by the and"
    [| 0xffffff; 0xffffff |] mix.params_demanded;
  let main = summary_exn "main" in
  Alcotest.(check int) "main is void" 0 main.ret_corrupt;
  Alcotest.(check bool) "main stores (transitively)" true main.corrupts_memory;
  Alcotest.(check bool) "main outputs" true main.emits_output;
  Alcotest.(check (list string)) "main callees" [ "scale"; "mix" ] main.callees;
  Alcotest.(check (list string)) "main globals" [ "buf" ] main.globals;
  Alcotest.(check bool) "none of the three is sdc-free" false
    (List.exists Dataflow.Summary.sdc_free_single (Lazy.force summaries));
  List.iter
    (fun s ->
      Alcotest.(check string)
        (s.Dataflow.Summary.fn ^ " digest = md5 of render")
        (Digest.to_hex (Digest.string (Dataflow.Summary.render s)))
        (Dataflow.Summary.digest s))
    (Lazy.force summaries)

(* A helper with a void return and no side effects is statically
   sdc-free under single-bit campaigns; verify the prediction against an
   actual campaign partition. *)
let sdc_free_module () =
  let module B = Ir.Build in
  let m = B.create () in
  B.global_i32s m "g" [| 3; 5; 7; 9 |];
  B.func m "sink" ~params:[ Ir.Ty.I32 ] ~ret:None (fun f ->
      let x = B.add f Ir.Ty.I32 (B.param f 0) (B.ci 1) in
      let y = B.mul f Ir.Ty.I32 x x in
      ignore (B.bxor f Ir.Ty.I32 y (B.ci 5));
      B.ret f None);
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let v = B.load f Ir.Ty.I32 (B.gep f ~base:(B.glob "g") ~index:i ~scale:4) in
          B.callv f "sink" [ v ];
          B.output f Ir.Ty.I32 v));
  B.finish m

let test_sdc_free_verified () =
  let m = sdc_free_module () in
  let s = Option.get (Dataflow.Summary.find (Dataflow.Summary.analyse m) "sink") in
  Alcotest.(check bool) "sink statically sdc-free" true
    (Dataflow.Summary.sdc_free_single s);
  let w = Core.Workload.make ~name:"sdcfree" m in
  let seed = 41L and n = 80 in
  List.iter
    (fun technique ->
      let spec = Core.Spec.single technique in
      let parts = Engine.Incremental.partition w spec ~n ~seed in
      let sink = parts.(fidx_of m "sink") in
      Alcotest.(check bool) "some experiments land in sink" true
        (Array.length sink > 0);
      let p = Core.Campaign.run_profile w spec ~seed ~indices:sink in
      Alcotest.(check int)
        ("no SDC from sink under single/" ^ Core.Technique.to_string technique)
        0 p.p_sdc)
    [ Core.Technique.Read; Core.Technique.Write ]

(* ---- lint: interprocedural rules ---- *)

let test_lint_uncalled () =
  let module B = Ir.Build in
  let m = B.create () in
  B.func m "orphan" ~params:[] ~ret:(Some Ir.Ty.I32) (fun f ->
      B.ret f (Some (B.ci 7)));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.output f Ir.Ty.I32 (B.ci 1);
      B.ret f None);
  let fs = Dataflow.Lint.check_module (B.finish m) in
  Alcotest.(check int) "one finding" 1 (List.length fs);
  let f = List.hd fs in
  Alcotest.(check string) "rule" "uncalled-function"
    (Dataflow.Lint.rule_name f.rule);
  Alcotest.(check string) "names the orphan" "orphan" f.fn

let test_lint_arity () =
  (* Validate rejects arity mismatches, so build the module by hand. *)
  let open Ir in
  let ret_block = { Func.b_name = "entry"; b_instrs = [||]; b_term = Instr.Ret None } in
  let callee =
    { Func.f_name = "callee"; f_params = [ Ty.I32 ]; f_ret = None;
      f_blocks = [| ret_block |]; f_reg_ty = [| Ty.I32 |] }
  in
  let call_block =
    { Func.b_name = "entry";
      b_instrs = [| Instr.Call { dst = None; callee = "callee"; args = [] } |];
      b_term = Instr.Ret None }
  in
  let main =
    { Func.f_name = "main"; f_params = []; f_ret = None;
      f_blocks = [| call_block |]; f_reg_ty = [||] }
  in
  let m = { Func.m_funcs = [ callee; main ]; m_globals = [] } in
  let fs = Dataflow.Lint.check_module m in
  Alcotest.(check bool) "arity mismatch reported" true
    (List.exists
       (fun (f : Dataflow.Lint.finding) ->
         Dataflow.Lint.rule_name f.rule = "call-arity-mismatch")
       fs)

let test_lint_registry_clean_interproc () =
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      Alcotest.(check (list string))
        (e.name ^ " lints clean interprocedurally") []
        (List.map Dataflow.Lint.to_string
           (Dataflow.Lint.check_module (e.build ()))))
    Bench_suite.Registry.all

(* ---- partition ---- *)

let test_partition_tiles () =
  let w = Lazy.force fixture_workload in
  let n = 60 and seed = 7L in
  List.iter
    (fun spec ->
      let parts = Engine.Incremental.partition w spec ~n ~seed in
      Array.iter
        (fun part ->
          Alcotest.(check bool) "indices strictly increasing" true
            (Array.for_all
               (fun i -> i >= 0 && i < n)
               part
            && Array.length part < 2
               || Array.for_all
                    (fun i -> part.(i) < part.(i + 1))
                    (Array.init (Array.length part - 1) Fun.id)))
        parts;
      let all = Array.concat (Array.to_list parts) in
      Array.sort compare all;
      Alcotest.(check (array int)) "partition tiles [0, n)"
        (Array.init n Fun.id) all)
    [ Core.Spec.single Read; Core.Spec.multi Write ~max_mbf:4 ~win:(Fixed 3) ]

(* ---- incremental == full ---- *)

let check_equal_result what a b =
  Alcotest.(check bool) what true (Core.Campaign.equal_result a b)

let test_incremental_equals_full () =
  let w = Lazy.force fixture_workload in
  let spec = Core.Spec.single Read and n = 60 and seed = 11L in
  let full = Core.Campaign.run w spec ~n ~seed in
  with_store (fun st ->
      let r1, s1 = Engine.Incremental.run ~store:st w spec ~n ~seed in
      check_equal_result "cold composed result equals full run" r1 full;
      Alcotest.(check int) "cold run recomputes everything" n s1.exps_recomputed;
      Alcotest.(check int) "cold run reuses nothing" 0 s1.exps_reused;
      let r2, s2 = Engine.Incremental.run ~store:st w spec ~n ~seed in
      check_equal_result "warm composed result equals full run" r2 full;
      Alcotest.(check int) "warm run reuses everything" n s2.exps_reused;
      Alcotest.(check int) "warm run recomputes nothing" 0 s2.funcs_recomputed)

(* Mem and code campaigns are not function-local, so they bypass the
   profile cache and run the fixed-N engine path in full. *)
let test_non_reg_runs_fixed_n () =
  let w = Lazy.force fixture_workload in
  let n = 60 and seed = 11L in
  List.iter
    (fun domain ->
      let spec = Core.Spec.multi ~domain Write ~max_mbf:2 ~win:(Fixed 3) in
      let full = Engine.run_campaign w spec ~n ~seed in
      List.iter
        (fun jobs ->
          with_store (fun st ->
              let what =
                Printf.sprintf "%s jobs=%d" (Core.Spec.label spec) jobs
              in
              let r, s =
                Engine.Incremental.run ~jobs ~store:st w spec ~n ~seed
              in
              check_equal_result (what ^ ": equals the fixed-N campaign") r
                full;
              Alcotest.(check int) (what ^ ": every function recomputed")
                s.funcs_total s.funcs_recomputed;
              Alcotest.(check int) (what ^ ": every experiment recomputed") n
                s.exps_recomputed))
        [ 1; 2 ])
    [ Core.Domain.Mem; Core.Domain.Code ]

let test_edit_reruns_only_edited () =
  let spec = Core.Spec.single Read and n = 60 and seed = 11L in
  (* Same program twice under the same name, with scale's block label
     renamed in between: only scale's identity digest changes. *)
  let wa = Core.Workload.make ~name:"work" (Lazy.force fixture_modl) in
  let wb = Core.Workload.make ~name:"work" (Lazy.force renamed_modl) in
  with_store (fun st ->
      let _, s1 = Engine.Incremental.run ~store:st wa spec ~n ~seed in
      Alcotest.(check int) "cold: all three computed" 3 s1.funcs_recomputed;
      let r2, s2 = Engine.Incremental.run ~store:st wb spec ~n ~seed in
      Alcotest.(check int) "edit: only scale recomputed" 1 s2.funcs_recomputed;
      Alcotest.(check int) "edit: the other two reused" 2 s2.funcs_reused;
      let parts =
        Engine.Incremental.partition wb spec ~n ~seed
      in
      let scale_share =
        Array.length parts.(fidx_of (Lazy.force renamed_modl) "scale")
      in
      Alcotest.(check int) "edit: exactly scale's share re-ran" scale_share
        s2.exps_recomputed;
      check_equal_result "edited composed result equals full run" r2
        (Core.Campaign.run wb spec ~n ~seed))

let test_real_edit_recomputes_all () =
  let spec = Core.Spec.single Write and n = 40 and seed = 3L in
  let mb = parse_exn (replace ~sub:"65535" ~by:"65534" (Lazy.force fixture_text)) in
  let wa = Core.Workload.make ~name:"work" (Lazy.force fixture_modl) in
  let wb = Core.Workload.make ~name:"work" mb in
  with_store (fun st ->
      let _ = Engine.Incremental.run ~store:st wa spec ~n ~seed in
      (* The constant edit changes scale's semantic digest, hence the
         environment digest: every cached profile is invalid. *)
      let r, s = Engine.Incremental.run ~store:st wb spec ~n ~seed in
      Alcotest.(check int) "nothing reused" 0 s.funcs_reused;
      check_equal_result "still equals the full run" r
        (Core.Campaign.run wb spec ~n ~seed))

(* ---- statically sdc-free and trapping sinks ---- *)

(* [sink] in [sdc_free_module] is statically sdc-free under single-flip
   campaigns, and its partition still runs like any other: the profile
   cached for it is the executed partition's, and the composed result
   equals the full campaign exactly, cold and warm. *)
let test_benign_sink () =
  let m = sdc_free_module () in
  let w = Core.Workload.make ~name:"sdcfree" m in
  let n = 80 and seed = 41L in
  List.iter
    (fun technique ->
      let spec = Core.Spec.single technique in
      let full = Core.Campaign.run w spec ~n ~seed in
      let parts = Engine.Incremental.partition w spec ~n ~seed in
      let sink = parts.(fidx_of m "sink") in
      Alcotest.(check bool) "sink owns some experiments" true
        (Array.length sink > 0);
      with_store (fun st ->
          let r1, s1 = Engine.Incremental.run ~store:st w spec ~n ~seed in
          let t = Core.Technique.to_string technique in
          check_equal_result ("composed equals full (" ^ t ^ ")") r1 full;
          Alcotest.(check int) (t ^ ": everything executed") n
            s1.exps_recomputed;
          let key =
            Store.profile_key ~program:"sdcfree" ~func:"sink"
              ~fdigest:(Ir.Fingerprint.func (func_exn m "sink"))
              ~env:(Ir.Fingerprint.environment m)
              ~spec ~n ~seed
          in
          let executed = Core.Campaign.run_profile w spec ~seed ~indices:sink in
          Alcotest.(check bool)
            (t ^ ": cached profile equals executed partition") true
            (match Store.lookup_profile st key with
            | Some q -> Core.Campaign.equal_profile executed q
            | None -> false);
          let r2, s2 = Engine.Incremental.run ~store:st w spec ~n ~seed in
          check_equal_result ("warm composed equals full (" ^ t ^ ")") r2
            full;
          Alcotest.(check int) (t ^ ": warm reuses everything") n
            s2.exps_reused))
    [ Core.Technique.Read; Core.Technique.Write ]

(* A sink that loads from memory can trap under a flipped address; its
   summary says so, and its partition composes exactly. *)
let test_trapping_sink () =
  let module B = Ir.Build in
  let m = B.create () in
  B.global_i32s m "g" [| 3; 5; 7; 9 |];
  B.func m "sink" ~params:[ Ir.Ty.I32 ] ~ret:None (fun f ->
      let v =
        B.load f Ir.Ty.I32 (B.gep f ~base:(B.glob "g") ~index:(B.ci 0) ~scale:4)
      in
      ignore (B.add f Ir.Ty.I32 v (B.param f 0));
      B.ret f None);
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let v =
            B.load f Ir.Ty.I32 (B.gep f ~base:(B.glob "g") ~index:i ~scale:4)
          in
          B.callv f "sink" [ v ];
          B.output f Ir.Ty.I32 v));
  let m = B.finish m in
  let s = Option.get (Dataflow.Summary.find (Dataflow.Summary.analyse m) "sink") in
  Alcotest.(check bool) "sink may trap" true s.Dataflow.Summary.may_trap;
  let w = Core.Workload.make ~name:"trapsink" m in
  let spec = Core.Spec.single Read and n = 60 and seed = 17L in
  let full = Core.Campaign.run w spec ~n ~seed in
  with_store (fun st ->
      let r, s = Engine.Incremental.run ~store:st w spec ~n ~seed in
      check_equal_result "composed equals full" r full;
      Alcotest.(check int) "everything executed" n s.exps_recomputed)

(* ---- store: profile records ---- *)

let test_store_profile_roundtrip () =
  let w = Lazy.force fixture_workload in
  let spec = Core.Spec.single Read and seed = 5L in
  let p = Core.Campaign.run_profile w spec ~seed ~indices:[| 0; 3; 9; 12 |] in
  let key =
    Store.profile_key ~program:"inc" ~func:"scale" ~fdigest:"aa" ~env:"bb"
      ~spec ~n:20 ~seed
  in
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add_profile st key p;
  Alcotest.(check bool) "immediate lookup" true
    (match Store.lookup_profile st key with
    | Some q -> Core.Campaign.equal_profile p q
    | None -> false);
  Store.close st;
  let st = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      Alcotest.(check bool) "survives reopen" true
        (match Store.lookup_profile st key with
        | Some q -> Core.Campaign.equal_profile p q
        | None -> false);
      Alcotest.(check int) "fold_profiles sees it" 1
        (Store.fold_profiles st (fun _ _ acc -> acc + 1) 0);
      Alcotest.(check int) "fold sees no shard" 0
        (Store.fold st (fun _ _ acc -> acc + 1) 0);
      let _ = Store.gc st in
      Alcotest.(check bool) "survives gc" true
        (match Store.lookup_profile st key with
        | Some q -> Core.Campaign.equal_profile p q
        | None -> false))

(* ---- properties ---- *)

(* A three-function program family parameterised by constants, for the
   digest-locality and composition properties. *)
let family (a, b, c) =
  let module B = Ir.Build in
  let m = B.create () in
  B.global_i32s m "g" [| 3; 5; 7; 9 |];
  B.func m "h1" ~params:[ Ir.Ty.I32 ] ~ret:(Some Ir.Ty.I32) (fun f ->
      let x = B.add f Ir.Ty.I32 (B.param f 0) (B.ci a) in
      let y = B.mul f Ir.Ty.I32 x (B.ci (b + 1)) in
      B.ret f (Some (B.band f Ir.Ty.I32 y (B.ci 0xffff))));
  B.func m "h2" ~params:[ Ir.Ty.I32; Ir.Ty.I32 ] ~ret:(Some Ir.Ty.I32) (fun f ->
      let x = B.bxor f Ir.Ty.I32 (B.param f 0) (B.param f 1) in
      let v =
        B.load f Ir.Ty.I32
          (B.gep f ~base:(B.glob "g") ~index:(B.ci (c land 3)) ~scale:4)
      in
      B.ret f (Some (B.add f Ir.Ty.I32 x v)));
  B.func m "main" ~params:[] ~ret:None (fun f ->
      B.for_ f ~from_:(B.ci 0) ~below:(B.ci 4) (fun i ->
          let v = B.load f Ir.Ty.I32 (B.gep f ~base:(B.glob "g") ~index:i ~scale:4) in
          let s = B.call1 f "h1" [ v ] in
          let t = B.call1 f "h2" [ s; i ] in
          B.output f Ir.Ty.I32 t));
  B.finish m

let prop_digest_locality =
  QCheck.Test.make ~name:"editing one function moves only its digest" ~count:12
    QCheck.(triple (int_range 1 1000) (int_range 1 1000) (int_range 0 7))
    (fun (a, b, c) ->
      let m1 = family (a, b, c) and m2 = family (a + 1, b, c) in
      let d m name = Ir.Fingerprint.func (func_exn m name) in
      d m1 "h1" <> d m2 "h1"
      && d m1 "h2" = d m2 "h2"
      && d m1 "main" = d m2 "main"
      && Ir.Fingerprint.environment m1 <> Ir.Fingerprint.environment m2)

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"composed incremental result equals full campaign"
    ~count:6
    QCheck.(
      triple (int_range 1 1000) (int_range 1 1000)
        (pair (int_range 0 7) bool))
    (fun (a, b, (c, write)) ->
      let m = family (a, b, c) in
      let w = Core.Workload.make ~name:"fam" m in
      let technique = if write then Core.Technique.Write else Read in
      let spec = Core.Spec.multi technique ~max_mbf:2 ~win:(Fixed 4) in
      let n = 30 and seed = Int64.of_int (a + b) in
      let full = Core.Campaign.run w spec ~n ~seed in
      with_store (fun st ->
          let r1, _ = Engine.Incremental.run ~store:st w spec ~n ~seed in
          let r2, s2 = Engine.Incremental.run ~store:st w spec ~n ~seed in
          Core.Campaign.equal_result r1 full
          && Core.Campaign.equal_result r2 full
          && s2.exps_reused = n))

let suites =
  [
    ( "incremental",
      [
        Alcotest.test_case "fingerprint: identity vs semantic" `Quick
          test_identity_vs_semantic;
        Alcotest.test_case "fingerprint: semantic tracks behaviour" `Quick
          test_semantic_tracks_behaviour;
        Alcotest.test_case "fingerprint: reachability" `Quick test_reachable;
        Alcotest.test_case "summary: fixture facts" `Quick test_summary_fixture;
        Alcotest.test_case "summary: sdc-free verified by injection" `Slow
          test_sdc_free_verified;
        Alcotest.test_case "lint: uncalled function" `Quick test_lint_uncalled;
        Alcotest.test_case "lint: call arity" `Quick test_lint_arity;
        Alcotest.test_case "lint: registry clean (interproc)" `Quick
          test_lint_registry_clean_interproc;
        Alcotest.test_case "partition tiles the campaign" `Quick
          test_partition_tiles;
        Alcotest.test_case "incremental == full (cold + warm)" `Slow
          test_incremental_equals_full;
        Alcotest.test_case "mem/code run the fixed-N path" `Slow
          test_non_reg_runs_fixed_n;
        Alcotest.test_case "label edit re-runs only that function" `Slow
          test_edit_reruns_only_edited;
        Alcotest.test_case "semantic edit invalidates everything" `Slow
          test_real_edit_recomputes_all;
        Alcotest.test_case "benign sink: profile = executed" `Slow
          test_benign_sink;
        Alcotest.test_case "trapping sink composes exactly" `Quick
          test_trapping_sink;
        Alcotest.test_case "store: profile roundtrip" `Quick
          test_store_profile_roundtrip;
        QCheck_alcotest.to_alcotest prop_digest_locality;
        QCheck_alcotest.to_alcotest prop_incremental_equals_full;
      ] );
  ]
