(* Tests for the fault-injection core: specs and Table I, the injector
   state machine, experiments, campaigns, the runner cache and CSV. *)

let spmv = lazy (Option.get (Bench_suite.Registry.find "spmv"))

let workload =
  lazy
    (let e = Lazy.force spmv in
     Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
       (e.build ()))

let qsort_workload =
  lazy
    (let e = Option.get (Bench_suite.Registry.find "qsort") in
     Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
       (e.build ()))

(* ---- specs and the plan ---- *)

let test_technique_strings () =
  Alcotest.(check (option bool))
    "read" (Some true)
    (Option.map (( = ) Core.Technique.Read) (Core.Technique.of_string "read"));
  Alcotest.(check bool) "unknown" true (Core.Technique.of_string "zap" = None)

let test_win_sample () =
  let g = Prng.of_seed 1L in
  Alcotest.(check int) "fixed" 7 (Core.Win.sample (Fixed 7) g);
  for _ = 1 to 200 do
    let v = Core.Win.sample (Rnd (11, 100)) g in
    Alcotest.(check bool) "rnd in range" true (v >= 11 && v <= 100)
  done;
  Alcotest.(check string) "to_string fixed" "0" (Core.Win.to_string (Fixed 0));
  Alcotest.(check string) "to_string rnd" "RND(2-10)"
    (Core.Win.to_string (Rnd (2, 10)))

let test_spec_validation () =
  Alcotest.(check bool) "single is single" true
    (Core.Spec.is_single (Core.Spec.single Read));
  Alcotest.check_raises "multi with mbf 1"
    (Invalid_argument "Spec.multi: max_mbf must be >= 2") (fun () ->
      ignore (Core.Spec.multi Read ~max_mbf:1 ~win:(Fixed 0)));
  Alcotest.(check string) "label" "write/m=3/w=RND(2-10)"
    (Core.Spec.label (Core.Spec.multi Write ~max_mbf:3 ~win:(Rnd (2, 10))))

let test_table1_shape () =
  Alcotest.(check int) "10 mbf values" 10
    (List.length Core.Table1.max_mbf_values);
  Alcotest.(check int) "9 windows" 9 (List.length Core.Table1.win_values);
  Alcotest.(check int) "8 positive windows" 8
    (List.length Core.Table1.win_positive);
  Alcotest.(check int) "91 specs per technique" 91
    (List.length (Core.Table1.specs Read));
  Alcotest.(check int) "182 campaigns per program" 182
    (List.length Core.Table1.all_specs);
  let labels = List.map Core.Spec.label Core.Table1.all_specs in
  Alcotest.(check int) "no duplicate specs" 182
    (List.length (List.sort_uniq compare labels))

(* ---- outcome classification ---- *)

let fake_result status output : Vm.Exec.result =
  { status; output; dyn_count = 10 }

let test_classify () =
  let golden = "abcd" in
  let chk name expected r =
    Alcotest.(check string)
      name expected
      (Core.Outcome.to_string (Core.Outcome.classify ~golden_output:golden r))
  in
  chk "benign" "benign" (fake_result Finished "abcd");
  chk "sdc" "sdc" (fake_result Finished "abcx");
  chk "no output" "no-output" (fake_result Finished "");
  chk "partial output is sdc" "sdc" (fake_result Finished "ab");
  chk "hang" "hang" (fake_result Hung "ab");
  chk "trap" "detected:segfault" (fake_result (Trapped Segfault) "ab");
  (* empty golden, empty output: benign *)
  Alcotest.(check bool) "empty golden benign" true
    (Core.Outcome.classify ~golden_output:"" (fake_result Finished "")
    = Core.Outcome.Benign)

let test_outcome_categories () =
  Alcotest.(check bool) "sdc" true (Core.Outcome.is_sdc Sdc);
  Alcotest.(check bool) "hang is detection" true
    (Core.Outcome.is_detection Hang);
  Alcotest.(check bool) "no-output is detection" true
    (Core.Outcome.is_detection No_output);
  Alcotest.(check bool) "benign is not detection" false
    (Core.Outcome.is_detection Benign);
  Alcotest.(check bool) "sdc is not detection" false
    (Core.Outcome.is_detection Sdc)

(* ---- workload ---- *)

let test_workload_golden () =
  let w = Lazy.force workload in
  Alcotest.(check bool) "budget > golden" true (w.budget > w.golden.dyn_count);
  Alcotest.(check int) "read candidates" w.checkpoints.read_cands
    (Core.Workload.candidates w (Core.Spec.single Read));
  Alcotest.(check int) "write candidates" w.checkpoints.write_cands
    (Core.Workload.candidates w (Core.Spec.single Write))

let test_workload_rejects_bad_reference () =
  let e = Lazy.force spmv in
  Alcotest.(check bool) "mismatching expected output rejected" true
    (match
       Core.Workload.make ~name:"x" ~expected_output:"bogus" (e.build ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_workload_rejects_trapping_main () =
  let module B = Ir.Build in
  let m = B.create () in
  B.func m "main" ~params:[] ~ret:None (fun f -> B.abort_ f);
  Alcotest.(check bool) "trapping golden rejected" true
    (match Core.Workload.make ~name:"trap" (B.finish m) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- injector / experiment ---- *)

let test_single_always_activates_one () =
  let w = Lazy.force workload in
  let base = Prng.of_seed 99L in
  for i = 0 to 49 do
    let e = Core.Experiment.run w (Core.Spec.single Read) (Prng.split_at base i) in
    Alcotest.(check int) "activated = 1" 1 e.activated
  done

let test_experiment_deterministic () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Write ~max_mbf:5 ~win:(Rnd (2, 10)) in
  let run i =
    Core.Experiment.run w spec (Prng.split_at (Prng.of_seed 5L) i)
  in
  for i = 0 to 19 do
    let a = run i and b = run i in
    Alcotest.(check string) "same outcome"
      (Core.Outcome.to_string a.outcome)
      (Core.Outcome.to_string b.outcome);
    Alcotest.(check int) "same activation" a.activated b.activated;
    Alcotest.(check int) "same dyn count" a.dyn_count b.dyn_count
  done

let test_activation_bounded_by_mbf () =
  let w = Lazy.force workload in
  List.iter
    (fun mbf ->
      let spec = Core.Spec.multi Read ~max_mbf:mbf ~win:(Fixed 1) in
      let base = Prng.of_seed 17L in
      for i = 0 to 29 do
        let e = Core.Experiment.run w spec (Prng.split_at base i) in
        Alcotest.(check bool) "1 <= activated <= mbf" true
          (e.activated >= 1 && e.activated <= mbf)
      done)
    [ 2; 5; 30 ]

let test_win0_multi_distinct_bits_same_target () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Write ~max_mbf:8 ~win:(Fixed 0) in
  let candidates = Core.Workload.candidates w spec in
  let base = Prng.of_seed 23L in
  for i = 0 to 19 do
    let rng = Prng.split_at base i in
    let inj = Core.Injector.create ~spec ~candidates rng in
    ignore (Vm.Exec.run ~hooks:(Core.Injector.hooks inj) ~budget:w.budget w.prog);
    let injections = Core.Injector.injections inj in
    Alcotest.(check bool) "some flips" true (List.length injections >= 1);
    let dyns = List.map (fun (j : Core.Injector.injection) -> j.inj_dyn) injections in
    let regs = List.map (fun (j : Core.Injector.injection) -> j.inj_loc) injections in
    let bits = List.map (fun (j : Core.Injector.injection) -> j.inj_bit) injections in
    Alcotest.(check int) "single dyn instruction" 1
      (List.length (List.sort_uniq compare dyns));
    Alcotest.(check int) "single register" 1
      (List.length (List.sort_uniq compare regs));
    Alcotest.(check int) "distinct bits" (List.length bits)
      (List.length (List.sort_uniq compare bits))
  done

let test_win_spacing_respected () =
  let w = Lazy.force qsort_workload in
  let win = 10 in
  let spec = Core.Spec.multi Read ~max_mbf:6 ~win:(Fixed win) in
  let candidates = Core.Workload.candidates w spec in
  let base = Prng.of_seed 31L in
  for i = 0 to 19 do
    let rng = Prng.split_at base i in
    let inj = Core.Injector.create ~spec ~candidates rng in
    ignore (Vm.Exec.run ~hooks:(Core.Injector.hooks inj) ~budget:w.budget w.prog);
    let dyns =
      List.map (fun (j : Core.Injector.injection) -> j.inj_dyn)
        (Core.Injector.injections inj)
    in
    let rec pairs = function
      | a :: (b :: _ as tl) ->
          Alcotest.(check bool) "spacing >= win" true (b - a >= win);
          pairs tl
      | [ _ ] | [] -> ()
    in
    pairs dyns
  done

let test_forced_first_replays_location () =
  let w = Lazy.force workload in
  let spec = Core.Spec.single Read in
  let rng = Prng.split_at (Prng.of_seed 3L) 0 in
  let e = Core.Experiment.run w spec rng in
  let inj = Option.get e.first in
  let forced = (inj.inj_cand, inj.inj_slot, inj.inj_bit) in
  let e2 = Core.Experiment.run_at w spec ~first:forced (Prng.of_seed 999L) in
  let inj2 = Option.get e2.first in
  Alcotest.(check int) "same candidate" inj.inj_cand inj2.inj_cand;
  Alcotest.(check int) "same bit" inj.inj_bit inj2.inj_bit;
  Alcotest.(check int) "same register" inj.inj_loc inj2.inj_loc;
  Alcotest.(check string) "same outcome (single-bit replay)"
    (Core.Outcome.to_string e.outcome)
    (Core.Outcome.to_string e2.outcome)

let test_injector_rejects_bad_input () =
  let spec = Core.Spec.single Read in
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Injector.create: no candidates") (fun () ->
      ignore (Core.Injector.create ~spec ~candidates:0 (Prng.of_seed 1L)));
  Alcotest.check_raises "forced out of range"
    (Invalid_argument "Injector.create: forced candidate out of range")
    (fun () ->
      ignore
        (Core.Injector.create ~spec ~candidates:10 ~first:(10, 0, 0)
           (Prng.of_seed 1L)))

let test_spacing_modes_diverge_but_both_work () =
  let w = Lazy.force qsort_workload in
  let spec = Core.Spec.multi Write ~max_mbf:5 ~win:(Fixed 10) in
  let a = Core.Campaign.run ~spacing:`Faulty w spec ~n:80 ~seed:6L in
  let b = Core.Campaign.run ~spacing:`Golden w spec ~n:80 ~seed:6L in
  Alcotest.(check int) "faulty sums" a.n
    (a.benign + a.detected + a.hang + a.no_output + a.sdc);
  Alcotest.(check int) "golden sums" b.n
    (b.benign + b.detected + b.hang + b.no_output + b.sdc);
  (* golden spacing pre-commits the schedule, so activations can only be
     fewer or equal in aggregate when crashes delay candidates *)
  Alcotest.(check bool) "activation bounded" true
    (Stats.Histogram.max_key a.activation <= 5
    && Stats.Histogram.max_key b.activation <= 5)

let test_weights_recorded () =
  let w = Lazy.force workload in
  (* read weights are the live distance (>= 1); write weights are 1 *)
  let base = Prng.of_seed 41L in
  for i = 0 to 29 do
    let er = Core.Experiment.run w (Core.Spec.single Read) (Prng.split_at base i) in
    let iw = (Option.get er.first).inj_weight in
    Alcotest.(check bool) "read weight >= 1" true (iw >= 1);
    let ew = Core.Experiment.run w (Core.Spec.single Write) (Prng.split_at base i) in
    Alcotest.(check int) "write weight = 1" 1 (Option.get ew.first).inj_weight
  done

let test_weighted_estimator () =
  let w = Lazy.force workload in
  let c = Core.Campaign.run w (Core.Spec.single Read) ~n:120 ~seed:8L in
  let wp = Core.Campaign.weighted_sdc_pct c in
  Alcotest.(check bool) "weighted pct in range" true (wp >= 0. && wp <= 100.);
  Alcotest.(check bool) "weights accumulated" true
    (c.weighted_total >= float_of_int c.n);
  Alcotest.(check bool) "weighted sdc <= total" true
    (c.weighted_sdc <= c.weighted_total);
  (* under inject-on-write the two estimators coincide *)
  let cw = Core.Campaign.run w (Core.Spec.single Write) ~n:120 ~seed:8L in
  Alcotest.(check bool) "write: weighted = unweighted" true
    (Float.abs (Core.Campaign.weighted_sdc_pct cw -. Core.Campaign.sdc_pct cw)
    < 1e-9)

(* ---- campaign ---- *)

let test_campaign_counts_sum () =
  let w = Lazy.force workload in
  let r = Core.Campaign.run w (Core.Spec.single Write) ~n:80 ~seed:7L in
  Alcotest.(check int) "outcomes sum to n" r.n
    (r.benign + r.detected + r.hang + r.no_output + r.sdc);
  Alcotest.(check int) "activation total = n" r.n
    (Stats.Histogram.total r.activation);
  let trap_sum = List.fold_left (fun a (_, c) -> a + c) 0 r.traps in
  Alcotest.(check int) "trap breakdown sums to detected" r.detected trap_sum

(* Every shard and profile the campaign layer computes passes
   [consistent], a shard is its profile with a range, and counts that
   do not add up fail the check. *)
let test_counts_consistent () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 2) in
  let s = Core.Campaign.run_shard w spec ~seed:7L ~lo:10 ~hi:50 in
  let p = Core.Campaign.profile_of_shard s in
  let q = Core.Campaign.run_profile w spec ~seed:7L ~indices:[| 3; 60; 8 |] in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) what true (Core.Campaign.consistent p))
    [
      ("run_shard", p);
      ("run_profile", q);
      ("sum_profiles", Core.Campaign.sum_profiles [ p; q ]);
      ("empty_profile", Core.Campaign.empty_profile);
    ];
  Alcotest.(check bool) "a shard is its profile with a range" true
    (Core.Campaign.shard_of_profile ~lo:10 ~hi:50 ~experiments:[||] p = s);
  Alcotest.check_raises "profile size must match the range"
    (Invalid_argument
       "Campaign.shard_of_profile: profile size differs from range")
    (fun () ->
      ignore (Core.Campaign.shard_of_profile ~lo:0 ~hi:3 ~experiments:[||] p));
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) what false (Core.Campaign.consistent bad))
    [
      ("outcomes exceed the size", { p with p_benign = p.p_benign + 1000 });
      ( "negative outcome",
        { p with p_hang = -1; p_benign = p.p_benign + p.p_hang + 1 } );
      ( "traps exceed detected",
        { p with p_traps = (Misaligned, 1) :: p.p_traps } );
      ("activation misses experiments", { p with p_activation = [] });
      ( "negative activation count",
        { p with p_activation = (0, p.p_exps + 1) :: [ (1, -1) ] } );
      ( "negative activation key",
        { p with p_activation = [ (-1, p.p_exps) ] } );
    ]

let test_campaign_deterministic () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Rnd (2, 10)) in
  let a = Core.Campaign.run w spec ~n:60 ~seed:21L in
  let b = Core.Campaign.run w spec ~n:60 ~seed:21L in
  Alcotest.(check int) "same sdc" a.sdc b.sdc;
  Alcotest.(check int) "same benign" a.benign b.benign;
  Alcotest.(check int) "same detected" a.detected b.detected

let test_campaign_seed_sensitivity () =
  let w = Lazy.force workload in
  let spec = Core.Spec.single Read in
  let a = Core.Campaign.run w spec ~n:100 ~seed:1L in
  let b = Core.Campaign.run w spec ~n:100 ~seed:2L in
  (* With different seeds the injected locations differ; identical full
     outcome vectors would indicate a seeding bug. *)
  Alcotest.(check bool) "different seeds differ somewhere" true
    ((a.benign, a.detected, a.hang, a.no_output, a.sdc)
    <> (b.benign, b.detected, b.hang, b.no_output, b.sdc)
    || a.sdc <> b.sdc)

let test_campaign_keeps_experiments () =
  let w = Lazy.force workload in
  let r =
    Core.Campaign.run ~keep_experiments:true w (Core.Spec.single Read) ~n:40
      ~seed:3L
  in
  Alcotest.(check int) "kept all" 40 (Array.length r.experiments);
  Array.iter
    (fun (e : Core.Experiment.t) ->
      Alcotest.(check bool) "first injection recorded" true (e.first <> None))
    r.experiments;
  let r2 = Core.Campaign.run w (Core.Spec.single Read) ~n:40 ~seed:3L in
  Alcotest.(check int) "unkept empty" 0 (Array.length r2.experiments);
  Alcotest.(check int) "same aggregate" r.sdc r2.sdc

let test_campaign_rejects_zero_n () =
  let w = Lazy.force workload in
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Campaign.run: n must be positive") (fun () ->
      ignore (Core.Campaign.run w (Core.Spec.single Read) ~n:0 ~seed:1L))

(* ---- runner ---- *)

let test_runner_caches () =
  let w = Lazy.force workload in
  let runner = Core.Runner.create ~n:30 () in
  let a = Core.Runner.campaign runner w (Core.Spec.single Read) in
  let b = Core.Runner.campaign runner w (Core.Spec.single Read) in
  Alcotest.(check bool) "cached (physically equal)" true (a == b);
  Alcotest.(check int) "cache size" 1 (Core.Runner.cache_size runner);
  let _ = Core.Runner.campaign_kept runner w (Core.Spec.single Read) in
  Alcotest.(check int) "kept cached separately" 2
    (Core.Runner.cache_size runner)

let test_runner_distinct_seeds_per_spec () =
  let w = Lazy.force workload in
  let runner = Core.Runner.create ~n:50 () in
  let a = Core.Runner.campaign runner w (Core.Spec.single Read) in
  let b =
    Core.Runner.campaign runner w (Core.Spec.multi Read ~max_mbf:2 ~win:(Fixed 1))
  in
  Alcotest.(check bool) "different campaign seeds" true (a.seed <> b.seed)

(* ---- csv ---- *)

let test_csv_row_shape () =
  let w = Lazy.force workload in
  let r = Core.Campaign.run w (Core.Spec.multi Write ~max_mbf:2 ~win:(Fixed 4)) ~n:30 ~seed:5L in
  let header_cols = String.split_on_char ',' Core.Csv.header in
  let row_cols = String.split_on_char ',' (Core.Csv.row r) in
  Alcotest.(check int) "same column count" (List.length header_cols)
    (List.length row_cols);
  Alcotest.(check string) "workload column" "spmv" (List.hd row_cols)

let prop_campaign_sums =
  QCheck.Test.make ~name:"campaign outcome counts always sum to n" ~count:8
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (mbf, seed) ->
      let w = Lazy.force workload in
      let spec =
        if mbf = 1 then Core.Spec.single Read
        else Core.Spec.multi Read ~max_mbf:mbf ~win:(Fixed 2)
      in
      let r = Core.Campaign.run w spec ~n:20 ~seed:(Int64.of_int seed) in
      r.benign + r.detected + r.hang + r.no_output + r.sdc = r.n)

let suites =
  [
    ( "core",
      [
        Alcotest.test_case "technique strings" `Quick test_technique_strings;
        Alcotest.test_case "win sample" `Quick test_win_sample;
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "table1 shape (182 campaigns)" `Quick
          test_table1_shape;
        Alcotest.test_case "outcome classify" `Quick test_classify;
        Alcotest.test_case "outcome categories" `Quick test_outcome_categories;
        Alcotest.test_case "workload golden" `Quick test_workload_golden;
        Alcotest.test_case "workload rejects bad reference" `Quick
          test_workload_rejects_bad_reference;
        Alcotest.test_case "workload rejects trapping main" `Quick
          test_workload_rejects_trapping_main;
        Alcotest.test_case "single bit always activates 1" `Quick
          test_single_always_activates_one;
        Alcotest.test_case "experiment deterministic" `Quick
          test_experiment_deterministic;
        Alcotest.test_case "activation bounded by max-MBF" `Quick
          test_activation_bounded_by_mbf;
        Alcotest.test_case "win=0: distinct bits, same target" `Quick
          test_win0_multi_distinct_bits_same_target;
        Alcotest.test_case "win spacing respected" `Quick
          test_win_spacing_respected;
        Alcotest.test_case "forced first replays location" `Quick
          test_forced_first_replays_location;
        Alcotest.test_case "injector rejects bad input" `Quick
          test_injector_rejects_bad_input;
        Alcotest.test_case "spacing modes" `Quick
          test_spacing_modes_diverge_but_both_work;
        Alcotest.test_case "weights recorded" `Quick test_weights_recorded;
        Alcotest.test_case "weighted estimator" `Quick test_weighted_estimator;
        Alcotest.test_case "campaign counts sum" `Quick test_campaign_counts_sum;
        Alcotest.test_case "shard and profile counts consistent" `Quick
          test_counts_consistent;
        Alcotest.test_case "campaign deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "campaign seed sensitivity" `Quick
          test_campaign_seed_sensitivity;
        Alcotest.test_case "campaign keeps experiments" `Quick
          test_campaign_keeps_experiments;
        Alcotest.test_case "campaign rejects n=0" `Quick
          test_campaign_rejects_zero_n;
        Alcotest.test_case "runner caches" `Quick test_runner_caches;
        Alcotest.test_case "runner seeds per spec" `Quick
          test_runner_distinct_seeds_per_spec;
        Alcotest.test_case "csv row shape" `Quick test_csv_row_shape;
        QCheck_alcotest.to_alcotest prop_campaign_sums;
      ] );
  ]
