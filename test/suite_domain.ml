(* Fault-domain tests: the Mem (live arena byte) and Code (stored
   program) domains must behave identically on both execution backends
   and across worker counts, and their store/CSV encoding
   must stay readable by — and byte-compatible with — the pre-domain
   register-only format. *)

let injection_equal (a : Core.Injector.injection) (b : Core.Injector.injection)
    =
  Core.Domain.equal a.inj_domain b.inj_domain
  && a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand
  && a.inj_loc = b.inj_loc && a.inj_ty = b.inj_ty && a.inj_slot = b.inj_slot
  && a.inj_bit = b.inj_bit && a.inj_weight = b.inj_weight

let result_equal label (a : Vm.Exec.result) (b : Vm.Exec.result) =
  Alcotest.(check bool) (label ^ " status") true (a.status = b.status);
  Alcotest.(check string) (label ^ " output") a.output b.output;
  Alcotest.(check int) (label ^ " dyn") a.dyn_count b.dyn_count

let workload =
  lazy
    (let d = Option.get (Bench_suite.Registry.find "crc32") in
     Core.Workload.make ~name:d.name ~expected_output:(d.reference ())
       (d.build ()))

let domain_specs domain =
  [
    Core.Spec.single ~domain Read;
    Core.Spec.single ~domain Write;
    (* win-0 multi: k distinct bits of the same byte / flip site *)
    Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 0);
    (* windowed multi: flips spaced on the dynamic axis *)
    Core.Spec.multi ~domain Write ~max_mbf:3 ~win:(Fixed 10);
    Core.Spec.multi ~domain Read ~max_mbf:4 ~win:(Rnd (2, 50));
  ]

(* One experiment, same (spec, seed, index), on the seed oracle
   ([Experiment.run_oracle]) and on the compiled micro-op VM in full
   ([Experiment.run_raw ~checkpoint:false]), each owning its per-domain
   target binding: runs and full injection logs must be bit-identical. *)
let check_backend_pair w spec ~base i =
  let run exec =
    let inj =
      Core.Injector.create ~spec
        ~candidates:(Core.Workload.candidates w spec)
        (Prng.split_at base i)
    in
    let r = exec w inj in
    (r, Core.Injector.injections inj, Core.Injector.activated inj)
  in
  let r_s, log_s, act_s = run Core.Experiment.run_oracle in
  let r_c, log_c, act_c = run (Core.Experiment.run_raw ~checkpoint:false) in
  let label = Printf.sprintf "%s #%d" (Core.Spec.label spec) i in
  result_equal label r_s r_c;
  Alcotest.(check int) (label ^ " activated") act_s act_c;
  Alcotest.(check int) (label ^ " log length") (List.length log_s)
    (List.length log_c);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (label ^ " injection") true (injection_equal a b);
      Alcotest.(check bool)
        (label ^ " domain tag")
        true
        (Core.Domain.equal a.Core.Injector.inj_domain spec.Core.Spec.domain))
    log_s log_c

let test_backend_differential domain () =
  let w = Lazy.force workload in
  let base = Prng.of_seed 77L in
  List.iter
    (fun spec ->
      for i = 0 to 11 do
        check_backend_pair w spec ~base i
      done)
    (domain_specs domain)

(* Random programs (the seed-vs-evaluator generator) under Mem and Code
   injection: both backends, full injection-log equality.  Random
   straight-line programs may map no memory at all — then the Mem domain
   must degrade to a golden run on both backends, which the equality
   check still covers. *)
let prop_random_programs domain =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random programs: %s domain matches across backends"
         (Core.Domain.to_string domain))
    ~count:120
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      let w = Core.Workload.make ~name:"random" m in
      let base = Prng.of_seed 4242L in
      List.iter
        (fun spec ->
          for i = 0 to 3 do
            check_backend_pair w spec ~base i
          done)
        [
          Core.Spec.single ~domain Read;
          Core.Spec.multi ~domain Read ~max_mbf:3 ~win:(Fixed 0);
          Core.Spec.multi ~domain Read ~max_mbf:2 ~win:(Fixed 5);
        ];
      true)

(* Campaign determinism: same counters at any worker count, and the
   same as the oracle's. *)
let test_campaign_determinism domain () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi ~domain Write ~max_mbf:2 ~win:(Fixed 0) in
  let n = 40 and seed = 7L in
  let oracle = Thelpers.oracle_campaign w spec ~n ~seed in
  Thelpers.with_checkpoints ~interval:64 w (fun w ->
      let r1 = Engine.run_campaign ~jobs:1 w spec ~n ~seed in
      let r4 = Engine.run_campaign ~jobs:4 w spec ~n ~seed in
      Alcotest.(check bool) "jobs=1 == jobs=4" true
        (Core.Campaign.equal_result r1 r4);
      Alcotest.(check bool) "production == oracle" true
        (Core.Campaign.equal_result oracle r1))

(* Regression: a stored-program flip can patch a call site while that
   very call is in flight in a restored checkpoint stack (qsort is
   recursive, so golden prefixes routinely snapshot mid-call).  The
   in-flight call must complete with its pre-flip destination — exactly
   as the oracle, which never restores — so the checkpointed campaign
   must stay bit-identical to the oracle's. *)
let test_code_resume_in_flight_calls () =
  let d = Option.get (Bench_suite.Registry.find "qsort") in
  let w =
    Core.Workload.make ~name:d.name ~expected_output:(d.reference ())
      (d.build ())
  in
  let spec = Core.Spec.single ~domain:Core.Domain.Code Write in
  let oracle = Thelpers.oracle_campaign w spec ~n:80 ~seed:11L in
  Thelpers.with_checkpoints ~interval:64 w (fun w ->
      let on = Engine.run_campaign ~jobs:2 w spec ~n:80 ~seed:11L in
      Alcotest.(check bool) "ckpt resume == oracle" true
        (Core.Campaign.equal_result oracle on))

(* ---- store keys ---- *)

let with_tmp_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onebit-domain-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_all_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
  |> String.concat ""

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Register-domain store records serialise WITHOUT a domain member — the
   exact bytes a pre-domain build wrote — so an old store loads as
   register records; mem/code keys carry a trailing "dom" member and
   never collide with them. *)
let test_store_key_encoding () =
  let w = Lazy.force workload in
  let mk_key spec =
    Store.key ~program:w.Core.Workload.name ~digest:w.Core.Workload.digest
      ~spec ~n:20 ~seed:5L ~lo:0 ~hi:10
  in
  let reg_spec = Core.Spec.single Read in
  let mem_spec = Core.Spec.single ~domain:Core.Domain.Mem Read in
  let shard = Core.Campaign.run_shard w reg_spec ~seed:5L ~lo:0 ~hi:10 in
  with_tmp_store (fun dir ->
      let st = Store.open_dir dir in
      Store.add st (mk_key reg_spec) shard;
      Store.close st;
      let bytes = read_all_segments dir in
      Alcotest.(check bool) "reg key has no dom member" false
        (contains ~sub:"\"dom\"" bytes);
      (* reopening reads the record back under the same key — and since
         the reg encoding is byte-identical to the pre-domain format,
         this is also the legacy-store load path *)
      let st = Store.open_dir dir in
      Alcotest.(check bool) "reg key round-trips" true
        (Store.lookup st (mk_key reg_spec) <> None);
      Alcotest.(check bool) "mem key does not hit the reg record" true
        (Store.lookup st (mk_key mem_spec) = None);
      let mshard = Core.Campaign.run_shard w mem_spec ~seed:5L ~lo:0 ~hi:10 in
      Store.add st (mk_key mem_spec) mshard;
      Store.close st;
      let bytes = read_all_segments dir in
      Alcotest.(check bool) "mem key is dom-tagged" true
        (contains ~sub:"\"dom\":\"mem\"" bytes);
      let st = Store.open_dir dir in
      Alcotest.(check bool) "mem key round-trips" true
        (Store.lookup st (mk_key mem_spec) <> None);
      Alcotest.(check bool) "reg record survives alongside" true
        (Store.lookup st (mk_key reg_spec) <> None);
      Store.close st)

(* ---- CSV and labels ---- *)

let test_csv_and_labels () =
  let w = Lazy.force workload in
  let run spec = Core.Campaign.run w spec ~n:10 ~seed:3L in
  let reg_row = Core.Csv.row (run (Core.Spec.single Write)) in
  let mem_row =
    Core.Csv.row (run (Core.Spec.single ~domain:Core.Domain.Mem Write))
  in
  let code_row =
    Core.Csv.row (run (Core.Spec.single ~domain:Core.Domain.Code Write))
  in
  (* reg rows keep the bare technique cell of pre-domain CSVs *)
  Alcotest.(check bool) "reg row bare technique" true
    (contains ~sub:",inject-on-write," reg_row
    && not (contains ~sub:"reg:" reg_row));
  Alcotest.(check bool) "mem row prefixed" true
    (contains ~sub:",mem:inject-on-write," mem_row);
  Alcotest.(check bool) "code row prefixed" true
    (contains ~sub:",code:inject-on-write," code_row);
  Alcotest.(check string) "reg label unchanged" "write/single"
    (Core.Spec.label (Core.Spec.single Write));
  Alcotest.(check string) "mem label" "mem/single"
    (Core.Spec.label (Core.Spec.single ~domain:Core.Domain.Mem Write));
  Alcotest.(check string) "code label" "code/m=3/w=7"
    (Core.Spec.label
       (Core.Spec.multi ~domain:Core.Domain.Code Read ~max_mbf:3
          ~win:(Fixed 7)));
  (* the domain string round-trips through its parser, including the
     lenient aliases *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "domain to/of_string" true
        (Core.Domain.of_string (Core.Domain.to_string d) = Some d))
    Core.Domain.all

let suites =
  [
    ( "domain",
      [
        Alcotest.test_case "mem: backends bit-identical" `Quick
          (test_backend_differential Core.Domain.Mem);
        Alcotest.test_case "code: backends bit-identical" `Quick
          (test_backend_differential Core.Domain.Code);
        QCheck_alcotest.to_alcotest (prop_random_programs Core.Domain.Mem);
        QCheck_alcotest.to_alcotest (prop_random_programs Core.Domain.Code);
        Alcotest.test_case "mem: campaign deterministic" `Quick
          (test_campaign_determinism Core.Domain.Mem);
        Alcotest.test_case "code: campaign deterministic" `Quick
          (test_campaign_determinism Core.Domain.Code);
        Alcotest.test_case "code: resume completes in-flight calls" `Quick
          test_code_resume_in_flight_calls;
        Alcotest.test_case "store keys: legacy-compatible encoding" `Quick
          test_store_key_encoding;
        Alcotest.test_case "csv rows and spec labels" `Quick
          test_csv_and_labels;
      ] );
  ]
