(* Tests for the observability layer (onebit.obs) and the unified
   runtime configuration (Core.Config).

   The load-bearing properties: recording never influences the
   instrumented computation (campaign results are bit-identical with
   collection on or off), histogram merging is associative and
   commutative (so shard-wise accumulation is order-independent), the
   registry snapshot does not depend on how work was spread over
   domains, and spans obey per-domain stack discipline.

   Metrics/trace collection is process-global, so every test that
   enables it restores the previous state on the way out. *)

let with_collection ~metrics ~trace f =
  let m0 = Obs.Metrics.enabled () and t0 = Obs.Trace.enabled () in
  Obs.Metrics.set_enabled metrics;
  Obs.Trace.set_enabled trace;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled m0;
      Obs.Trace.set_enabled t0)
    f

let workload =
  lazy
    (let e = Option.get (Bench_suite.Registry.find "crc32") in
     Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
       (e.build ()))

(* ---- metrics registry ---- *)

let test_counter_gating () =
  with_collection ~metrics:false ~trace:false (fun () ->
      let reg = Obs.Metrics.create () in
      let c = Obs.Metrics.counter ~registry:reg "t_gate_total" in
      Obs.Metrics.incr c;
      Obs.Metrics.add c 41;
      Alcotest.(check (option int))
        "disabled probes record nothing" (Some 0)
        (match Obs.Metrics.find ~registry:reg "t_gate_total" with
        | Some (Obs.Metrics.Counter n) -> Some n
        | _ -> None);
      Obs.Metrics.set_enabled true;
      Obs.Metrics.incr c;
      Obs.Metrics.add c 41;
      Alcotest.(check (option int))
        "enabled probes record" (Some 42)
        (match Obs.Metrics.find ~registry:reg "t_gate_total" with
        | Some (Obs.Metrics.Counter n) -> Some n
        | _ -> None))

let test_registration_idempotent () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter ~registry:reg "t_idem_total" in
  let b = Obs.Metrics.counter ~registry:reg "t_idem_total" in
  with_collection ~metrics:true ~trace:false (fun () ->
      Obs.Metrics.incr a;
      Obs.Metrics.incr b);
  (match Obs.Metrics.find ~registry:reg "t_idem_total" with
  | Some (Obs.Metrics.Counter n) ->
      Alcotest.(check int) "same handle, one series" 2 n
  | _ -> Alcotest.fail "counter not found");
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument
       "Obs.Metrics: t_idem_total already registered with another kind")
    (fun () -> ignore (Obs.Metrics.gauge ~registry:reg "t_idem_total"))

let test_labels_are_distinct_series () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter ~registry:reg ~labels:[ ("k", "a") ] "t_lbl" in
  let b = Obs.Metrics.counter ~registry:reg ~labels:[ ("k", "b") ] "t_lbl" in
  with_collection ~metrics:true ~trace:false (fun () ->
      Obs.Metrics.incr a;
      Obs.Metrics.add b 2);
  let v lbl =
    match Obs.Metrics.find ~registry:reg ~labels:[ ("k", lbl) ] "t_lbl" with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "series a" 1 (v "a");
  Alcotest.(check int) "series b" 2 (v "b")

(* ---- histogram merge: associativity/commutativity (qcheck) ---- *)

let bounds = [| 1.0; 10.0; 100.0 |]

let hvalue_gen =
  (* Integer-valued sums keep float addition exact, so merge equality
     can be checked exactly. *)
  QCheck.Gen.map2
    (fun counts sum ->
      { Obs.Metrics.le = bounds; counts; sum = float_of_int sum })
    QCheck.Gen.(array_size (return 4) (int_range 0 1000))
    (QCheck.Gen.int_range 0 100_000)

let pp_hvalue (h : Obs.Metrics.hvalue) =
  Printf.sprintf "{counts=[%s]; sum=%g}"
    (String.concat ";" (Array.to_list (Array.map string_of_int h.counts)))
    h.sum

let hvalue_eq (a : Obs.Metrics.hvalue) (b : Obs.Metrics.hvalue) =
  a.le = b.le && a.counts = b.counts && a.sum = b.sum

let prop_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative and commutative"
    ~count:200
    (QCheck.make
       QCheck.Gen.(triple hvalue_gen hvalue_gen hvalue_gen)
       ~print:(fun (a, b, c) ->
         String.concat " " [ pp_hvalue a; pp_hvalue b; pp_hvalue c ]))
    (fun (a, b, c) ->
      let open Obs.Metrics in
      hvalue_eq (merge_hvalue (merge_hvalue a b) c)
        (merge_hvalue a (merge_hvalue b c))
      && hvalue_eq (merge_hvalue a b) (merge_hvalue b a)
      && hvalue_total (merge_hvalue a b) = hvalue_total a + hvalue_total b)

let test_merge_bucket_mismatch () =
  let h1 = { Obs.Metrics.le = bounds; counts = [| 0; 0; 0; 0 |]; sum = 0. } in
  let h2 =
    { Obs.Metrics.le = [| 5.0 |]; counts = [| 0; 0 |]; sum = 0. }
  in
  Alcotest.check_raises "bucket mismatch rejected"
    (Invalid_argument "Obs.Metrics.merge_hvalue: bucket mismatch") (fun () ->
      ignore (Obs.Metrics.merge_hvalue h1 h2))

(* ---- snapshot determinism: 1 domain vs 4 domains ---- *)

let record_spread ~domains =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "t_spread_total" in
  let h =
    Obs.Metrics.histogram ~registry:reg ~buckets:[| 50.0; 200.0 |] "t_spread_h"
  in
  let total = 400 in
  let work lo hi =
    for i = lo to hi - 1 do
      Obs.Metrics.incr c;
      Obs.Metrics.observe h (float_of_int i)
    done
  in
  let chunk = total / domains in
  let spawned =
    List.init (domains - 1) (fun k ->
        let lo = (k + 1) * chunk in
        let hi = if k = domains - 2 then total else lo + chunk in
        Domain.spawn (fun () -> work lo hi))
  in
  work 0 chunk;
  List.iter Domain.join spawned;
  Obs.Metrics.snapshot ~registry:reg ()

let test_snapshot_domain_independent () =
  with_collection ~metrics:true ~trace:false (fun () ->
      let s1 = record_spread ~domains:1 in
      let s4 = record_spread ~domains:4 in
      Alcotest.(check int) "same sample count" (List.length s1)
        (List.length s4);
      List.iter2
        (fun (a : Obs.Metrics.sample) (b : Obs.Metrics.sample) ->
          Alcotest.(check string) "sample name" a.name b.name;
          match (a.value, b.value) with
          | Obs.Metrics.Counter x, Obs.Metrics.Counter y ->
              Alcotest.(check int) "counter value" x y
          | Obs.Metrics.Histogram x, Obs.Metrics.Histogram y ->
              (* Observations are integer-valued, so the sums are exact
                 and must match bit-for-bit across distributions. *)
              Alcotest.(check bool) "histogram value" true (hvalue_eq x y)
          | _ -> Alcotest.fail "sample kind mismatch")
        s1 s4;
      (* Rendering snapshots is deterministic too. *)
      Alcotest.(check string) "rendered dump identical"
        (Obs.Metrics.render s1) (Obs.Metrics.render s4))

let test_render_shape () =
  with_collection ~metrics:true ~trace:false (fun () ->
      let reg = Obs.Metrics.create () in
      let c = Obs.Metrics.counter ~registry:reg ~labels:[ ("kind", "x\"y") ]
          "t_render_total"
      in
      let h = Obs.Metrics.histogram ~registry:reg ~buckets:[| 1.0 |] "t_r_h" in
      let g = Obs.Metrics.gauge ~registry:reg "t_r_gauge" in
      Obs.Metrics.incr c;
      Obs.Metrics.observe h 0.5;
      Obs.Metrics.observe h 2.0;
      Obs.Metrics.set g 1.5;
      let text = Obs.Metrics.render (Obs.Metrics.snapshot ~registry:reg ()) in
      List.iter
        (fun needle ->
          let found =
            let nl = String.length needle and tl = String.length text in
            let rec go i =
              i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) ("dump contains " ^ needle) true found)
        [
          "# TYPE t_r_h histogram";
          "t_r_h_bucket{le=\"1\"} 1";
          "t_r_h_bucket{le=\"+Inf\"} 2";
          "t_r_h_sum 2.5";
          "t_r_h_count 2";
          "# TYPE t_r_gauge gauge";
          "t_r_gauge 1.5";
          "t_render_total{kind=\"x\\\"y\"} 1";
        ])

(* ---- spans ---- *)

let test_span_nesting () =
  with_collection ~metrics:false ~trace:true (fun () ->
      Obs.Trace.clear ();
      Obs.Trace.with_span "outer" (fun () ->
          Obs.Trace.with_span "inner" (fun () -> ());
          (* The end event must be recorded on the exception path too. *)
          try Obs.Trace.with_span "raising" (fun () -> raise Exit)
          with Exit -> ());
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "three spans, six events" 6 (List.length evs);
      Alcotest.(check bool) "well-formed" true (Obs.Trace.well_formed evs);
      let names = List.map (fun (e : Obs.Trace.event) -> e.name) evs in
      Alcotest.(check (list string)) "nesting order"
        [ "outer"; "inner"; "inner"; "raising"; "raising"; "outer" ]
        names;
      Obs.Trace.clear ();
      Alcotest.(check int) "clear empties the buffer" 0
        (List.length (Obs.Trace.events ())))

let test_span_well_formed_rejects () =
  let ev name ph = { Obs.Trace.name; ph; ts = 0.0; dom = 0 } in
  Alcotest.(check bool) "unmatched end" false
    (Obs.Trace.well_formed [ ev "a" 'E' ]);
  Alcotest.(check bool) "left open" false
    (Obs.Trace.well_formed [ ev "a" 'B' ]);
  Alcotest.(check bool) "crossed spans" false
    (Obs.Trace.well_formed [ ev "a" 'B'; ev "b" 'B'; ev "a" 'E'; ev "b" 'E' ]);
  Alcotest.(check bool) "interleaved domains fine" true
    (Obs.Trace.well_formed
       [
         { Obs.Trace.name = "a"; ph = 'B'; ts = 0.0; dom = 0 };
         { Obs.Trace.name = "b"; ph = 'B'; ts = 0.0; dom = 1 };
         { Obs.Trace.name = "a"; ph = 'E'; ts = 0.0; dom = 0 };
         { Obs.Trace.name = "b"; ph = 'E'; ts = 0.0; dom = 1 };
       ])

let test_span_disabled_is_free () =
  with_collection ~metrics:false ~trace:false (fun () ->
      Obs.Trace.clear ();
      Obs.Trace.with_span "ghost" (fun () -> ());
      Alcotest.(check int) "no events recorded" 0
        (List.length (Obs.Trace.events ())))

let test_span_json () =
  let e = { Obs.Trace.name = "a\"b"; ph = 'B'; ts = 1.5; dom = 3 } in
  Alcotest.(check string) "json escaping"
    "{\"name\":\"a\\\"b\",\"ph\":\"B\",\"ts\":1.500000,\"dom\":3}"
    (Obs.Trace.json_of_event e)

(* ---- campaign differential: collection must not change results ---- *)

let test_campaign_bit_identical () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Core.Technique.Read ~max_mbf:3 ~win:(Fixed 10) in
  let run () = Core.Campaign.run w spec ~n:60 ~seed:5L in
  let r_off = with_collection ~metrics:false ~trace:false run in
  let r_on = with_collection ~metrics:true ~trace:true run in
  Alcotest.(check bool) "results bit-identical" true
    (Core.Campaign.equal_result r_off r_on);
  Alcotest.(check string) "CSV rows byte-identical" (Core.Csv.row r_off)
    (Core.Csv.row r_on)

let test_engine_campaign_bit_identical () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Core.Technique.Write ~max_mbf:2 ~win:(Fixed 5) in
  let run () =
    Engine.run_campaign ~jobs:4 ~shard_size:16 w spec ~n:96 ~seed:9L
  in
  let r_off = with_collection ~metrics:false ~trace:false run in
  let r_on = with_collection ~metrics:true ~trace:false run in
  Alcotest.(check bool) "parallel results bit-identical" true
    (Core.Campaign.equal_result r_off r_on)

let test_vm_instruction_counter () =
  with_collection ~metrics:true ~trace:false (fun () ->
      let before =
        match Obs.Metrics.find "onebit_vm_instructions_total" with
        | Some (Obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      let w = Lazy.force workload in
      let res = Vm.Exec.run ~budget:w.budget w.prog in
      let after =
        match Obs.Metrics.find "onebit_vm_instructions_total" with
        | Some (Obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      Alcotest.(check int) "counter advances by dyn_count" res.dyn_count
        (after - before))

(* ---- unified snapshot ---- *)

let test_snapshot_add_count_read () =
  let d =
    {
      Obs.Snapshot.mem_hits = 1;
      dispatched = 2;
      shards_from_store = 3;
      shards_executed = 4;
      experiments_from_store = 5;
      experiments_executed = 6;
    }
  in
  Alcotest.(check bool) "zero is neutral" true
    (Obs.Snapshot.add Obs.Snapshot.zero d = d);
  with_collection ~metrics:true ~trace:false (fun () ->
      let before = Obs.Snapshot.read () in
      Obs.Snapshot.count d;
      let after = Obs.Snapshot.read () in
      Alcotest.(check bool) "count folds into the registry" true
        (Obs.Snapshot.add before d = after))

let test_snapshot_pp () =
  Alcotest.(check string) "legacy four-field rendering"
    "1 memory hit, 2 campaigns dispatched, 0 shards from store, 1 shard \
     executed"
    (Obs.Snapshot.pp
       {
         Obs.Snapshot.mem_hits = 1;
         dispatched = 2;
         shards_from_store = 0;
         shards_executed = 1;
         experiments_from_store = 0;
         experiments_executed = 0;
       });
  Alcotest.(check string) "experiment totals appended when nonzero"
    "0 memory hits, 0 campaigns dispatched, 2 shards from store, 1 shard \
     executed, 50 experiments from store, 25 experiments executed"
    (Obs.Snapshot.pp
       {
         Obs.Snapshot.mem_hits = 0;
         dispatched = 0;
         shards_from_store = 2;
         shards_executed = 1;
         experiments_from_store = 50;
         experiments_executed = 25;
       })

let test_runner_engine_unified () =
  (* The engine's run_stats and the runner's snapshot are literally the
     same record type now; field punning across them must typecheck and
     the engine stats must flow into the runner's view. *)
  let w = Lazy.force workload in
  let runner = Engine.runner ~n:48 ~seed:3L ~jobs:2 ~shard_size:16 () in
  let spec = Core.Spec.single Core.Technique.Read in
  let _ = Core.Runner.campaign runner w spec in
  let _ = Core.Runner.campaign runner w spec in
  let s = Core.Runner.snapshot runner in
  Alcotest.(check int) "one dispatch" 1 s.Obs.Snapshot.dispatched;
  Alcotest.(check int) "one memory hit" 1 s.Obs.Snapshot.mem_hits;
  Alcotest.(check int) "three shards executed" 3 s.Obs.Snapshot.shards_executed;
  let rs : Engine.run_stats = s in
  Alcotest.(check int) "same record type" 3 rs.shards_executed

(* ---- Core.Config ---- *)

let getenv_of alist name = List.assoc_opt name alist

let test_config_defaults () =
  let c = Core.Config.of_env ~getenv:(getenv_of []) () in
  Alcotest.(check bool) "empty env resolves to defaults" true
    (c = Core.Config.default)

let test_config_env_parsing () =
  let open Core.Config in
  let resolve alist = of_env ~getenv:(getenv_of alist) () in
  Alcotest.(check int) "N parses" 7 (resolve [ ("ONEBIT_N", "7") ]).n;
  Alcotest.(check int) "unparsable N falls back" 100
    (resolve [ ("ONEBIT_N", "many") ]).n;
  Alcotest.(check int64) "seed parses" 42L
    (resolve [ ("ONEBIT_SEED", "42") ]).seed;
  Alcotest.(check (option (list string))) "programs split on comma"
    (Some [ "a"; "b" ])
    (resolve [ ("ONEBIT_PROGRAMS", "a,b") ]).programs;
  Alcotest.(check (option (list string))) "empty programs means unset" None
    (resolve [ ("ONEBIT_PROGRAMS", "") ]).programs;
  Alcotest.(check (option (list string))) "empty program items dropped"
    (Some [ "crc32" ])
    (resolve [ ("ONEBIT_PROGRAMS", "crc32,") ]).programs;
  Alcotest.(check (option (list string))) "program items trimmed"
    (Some [ "crc32"; "qsort" ])
    (resolve [ ("ONEBIT_PROGRAMS", " crc32 , qsort ") ]).programs;
  Alcotest.(check int) "positive jobs literal" 3
    (resolve [ ("ONEBIT_JOBS", "3") ]).jobs;
  Alcotest.(check int) "jobs=0 means one per core"
    (Domain.recommended_domain_count ())
    (resolve [ ("ONEBIT_JOBS", "0") ]).jobs;
  Alcotest.(check int) "unparsable jobs means one per core"
    (Domain.recommended_domain_count ())
    (resolve [ ("ONEBIT_JOBS", "lots") ]).jobs;
  Alcotest.(check int) "unset jobs means sequential" 1 (resolve []).jobs;
  Alcotest.(check int) "non-positive shard ignored" 25
    (resolve [ ("ONEBIT_SHARD", "-4") ]).shard_size;
  Alcotest.(check (option string)) "empty store means none" None
    (resolve [ ("ONEBIT_STORE", "") ]).store;
  Alcotest.(check (option string)) "store path kept" (Some "/tmp/s")
    (resolve [ ("ONEBIT_STORE", "/tmp/s") ]).store;
  Alcotest.(check bool) "progress yes" true
    (resolve [ ("ONEBIT_PROGRESS", "yes") ]).progress;
  Alcotest.(check bool) "progress on" true
    (resolve [ ("ONEBIT_PROGRESS", "on") ]).progress;
  Alcotest.(check bool) "progress 0 is off" false
    (resolve [ ("ONEBIT_PROGRESS", "0") ]).progress;
  Alcotest.(check (option string)) "metrics sink" (Some "-")
    (resolve [ ("ONEBIT_METRICS", "-") ]).metrics;
  Alcotest.(check (option string)) "trace sink" (Some "/tmp/t.jsonl")
    (resolve [ ("ONEBIT_TRACE", "/tmp/t.jsonl") ]).trace

let test_config_override_precedence () =
  let open Core.Config in
  let env =
    of_env
      ~getenv:
        (getenv_of
           [ ("ONEBIT_N", "7"); ("ONEBIT_JOBS", "3"); ("ONEBIT_STORE", "/e") ])
      ()
  in
  let c = override ~n:9 ~store:"/flag" env in
  Alcotest.(check int) "flag beats env" 9 c.n;
  Alcotest.(check int) "env survives when no flag" 3 c.jobs;
  Alcotest.(check (option string)) "flag store beats env" (Some "/flag")
    c.store;
  let c = override ~jobs:0 env in
  Alcotest.(check int) "flag jobs=0 means one per core"
    (Domain.recommended_domain_count ())
    c.jobs;
  let c = override ~shard_size:(-1) env in
  Alcotest.(check int) "non-positive shard_size flag ignored"
    env.shard_size c.shard_size;
  Alcotest.(check int) "resolve_jobs literal" 5 (resolve_jobs 5);
  Alcotest.(check int) "resolve_jobs 0"
    (Domain.recommended_domain_count ())
    (resolve_jobs 0)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter gating" `Quick test_counter_gating;
        Alcotest.test_case "registration idempotent" `Quick
          test_registration_idempotent;
        Alcotest.test_case "labelled series distinct" `Quick
          test_labels_are_distinct_series;
        QCheck_alcotest.to_alcotest prop_merge_associative;
        Alcotest.test_case "merge bucket mismatch" `Quick
          test_merge_bucket_mismatch;
        Alcotest.test_case "snapshot independent of domain spread" `Quick
          test_snapshot_domain_independent;
        Alcotest.test_case "prometheus render shape" `Quick test_render_shape;
        Alcotest.test_case "span nesting well-formed" `Quick test_span_nesting;
        Alcotest.test_case "well_formed rejects bad streams" `Quick
          test_span_well_formed_rejects;
        Alcotest.test_case "disabled tracing records nothing" `Quick
          test_span_disabled_is_free;
        Alcotest.test_case "span json escaping" `Quick test_span_json;
        Alcotest.test_case "campaign bit-identical on/off" `Quick
          test_campaign_bit_identical;
        Alcotest.test_case "parallel campaign bit-identical on/off" `Quick
          test_engine_campaign_bit_identical;
        Alcotest.test_case "vm instruction counter exact" `Quick
          test_vm_instruction_counter;
        Alcotest.test_case "snapshot add/count/read" `Quick
          test_snapshot_add_count_read;
        Alcotest.test_case "snapshot pp" `Quick test_snapshot_pp;
        Alcotest.test_case "runner/engine stats unified" `Quick
          test_runner_engine_unified;
      ] );
    ( "config",
      [
        Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "env parsing" `Quick test_config_env_parsing;
        Alcotest.test_case "override precedence" `Quick
          test_config_override_precedence;
      ] );
  ]
