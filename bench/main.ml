(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table II, Figures 1-5, Tables III-IV, the RQ summary boxes)
   and the ablation studies called out in DESIGN.md.  Performance is
   measured by perfbench/ (see perfbench/README.md).

   Usage:  main.exe [t2|f1|f2|f3|f4|f5|t3|t4|rq|severity|targets|harden|prune-static|ablate|all]

   Every ONEBIT_* environment variable (N, SEED, PROGRAMS, CAP, PRUNE_N,
   JOBS, SHARD, STORE, PROGRESS, METRICS, TRACE) resolves through
   Core.Config — see its interface or the README table for semantics. *)

let cfg = Core.Config.of_env ()
let () = Core.Config.install cfg
let n_per_campaign = cfg.Core.Config.n
let seed = cfg.Core.Config.seed
let t4_cap = cfg.Core.Config.cap
let prune_n = cfg.Core.Config.prune_n
let jobs = cfg.Core.Config.jobs
let store = Option.map Store.open_dir cfg.Core.Config.store
let progress = Engine.Progress.create ()
let programs = cfg.Core.Config.programs

let runner =
  lazy (Engine.runner ~n:n_per_campaign ~seed ~jobs ?store ~progress ())

let study =
  lazy
    (let t0 = Unix.gettimeofday () in
     let s =
       Analysis.Study.make ~runner:(Lazy.force runner) ?programs ()
     in
     (* Timings go to stderr so stdout is byte-identical across runs and
        worker counts (the CI determinism smoke diffs it). *)
     Printf.printf "# study: %d programs, %d experiments/campaign, seed %Ld\n\n"
       (List.length s.workloads) n_per_campaign seed;
     Printf.eprintf "# study built in %.1fs (jobs=%d%s)\n"
       (Unix.gettimeofday () -. t0)
       jobs
       (match store with
       | Some st -> Printf.sprintf ", store=%s" (Store.dir st)
       | None -> "");
     s)

let tech_name = function
  | Core.Technique.Read -> "inject-on-read"
  | Core.Technique.Write -> "inject-on-write"

let section title =
  Printf.printf "==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n"

(* ------------------------------------------------------------------ *)
(* Table II: candidate instruction counts                              *)
(* ------------------------------------------------------------------ *)

let run_t2 () =
  section "Table II: benchmark programs and fault-injection candidates";
  let rows = Analysis.Table2.compute (Lazy.force study) in
  let body =
    List.map
      (fun (r : Analysis.Table2.row) ->
        [
          r.program;
          r.suite;
          r.package;
          string_of_int r.dyn_count;
          string_of_int r.read_cands;
          string_of_int r.write_cands;
          string_of_int r.pred_reads;
          string_of_int r.pred_writes;
        ])
      rows
  in
  print_string
    (Report.Table.render
       ~header:
         [
           "program";
           "suite";
           "package";
           "dyn-instrs";
           "cand-read";
           "cand-write";
           "pred-read";
           "pred-write";
         ]
       body);
  List.iter
    (fun (r : Analysis.Table2.row) ->
      if r.pred_reads <> r.read_cands || r.pred_writes <> r.write_cands then
        Printf.printf
          "!! %s: static candidate prediction diverges from the dynamic count\n"
          r.program)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 1: single bit-flip outcome classification                    *)
(* ------------------------------------------------------------------ *)

let run_f1 () =
  List.iter
    (fun tech ->
      section
        (Printf.sprintf "Figure 1 (%s): single bit-flip outcome classification"
           (tech_name tech));
      let rows = Analysis.Fig1.compute (Lazy.force study) tech in
      let body =
        List.map
          (fun (r : Analysis.Fig1.row) ->
            let c = r.result in
            let pct v =
              Report.Table.pct (100. *. float_of_int v /. float_of_int c.n)
            in
            let sdc = Core.Campaign.sdc_ci c in
            let p, _, _ = Stats.Proportion.percent sdc in
            [
              r.program;
              pct c.benign;
              pct c.detected;
              pct c.hang;
              pct c.no_output;
              Report.Table.pct_ci p (100. *. Stats.Proportion.half_width sdc);
              pct (c.detected + c.hang + c.no_output);
            ])
          rows
      in
      print_string
        (Report.Table.render
           ~header:
             [
               "program";
               "benign%";
               "hw-exc%";
               "hang%";
               "no-out%";
               "sdc%";
               "detection%";
             ]
           body);
      print_newline ())
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* Figure 2: multi-bit flips in the same register (win-size = 0)       *)
(* ------------------------------------------------------------------ *)

let run_f2 () =
  List.iter
    (fun tech ->
      section
        (Printf.sprintf
           "Figure 2 (%s): SDC%% vs max-MBF, same register (win-size = 0)"
           (tech_name tech));
      let rows = Analysis.Fig2.compute (Lazy.force study) tech in
      let header =
        "program"
        :: List.map
             (fun (m, _) -> "m=" ^ string_of_int m)
             (match rows with r :: _ -> r.by_mbf | [] -> [])
      in
      let body =
        List.map
          (fun (r : Analysis.Fig2.row) ->
            r.program
            :: List.map
                 (fun (_, c) -> Report.Table.pct (Core.Campaign.sdc_pct c))
                 r.by_mbf)
          rows
      in
      print_string (Report.Table.render ~header body);
      print_newline ())
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* Figure 3: activated errors at max-MBF = 30                          *)
(* ------------------------------------------------------------------ *)

let run_f3 () =
  List.iter
    (fun tech ->
      section
        (Printf.sprintf
           "Figure 3 (%s): activated errors before crash (max-MBF = 30)"
           (tech_name tech));
      let d = Analysis.Fig3.compute (Lazy.force study) tech in
      let body =
        Stats.Histogram.to_alist d.histogram
        |> List.map (fun (k, c) ->
               [
                 string_of_int k;
                 string_of_int c;
                 Report.Table.pct
                   (100. *. float_of_int c /. float_of_int d.total);
               ])
      in
      print_string
        (Report.Table.render
           ~header:[ "activated"; "experiments"; "share%" ]
           body);
      Printf.printf "buckets: <=5: %.1f%%   6-10: %.1f%%   >10: %.1f%%\n\n"
        (100. *. Analysis.Fig3.share d ~lo:0 ~hi:5)
        (100. *. Analysis.Fig3.share d ~lo:6 ~hi:10)
        (100. *. Analysis.Fig3.share d ~lo:11 ~hi:max_int))
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: the multi-register SDC grids                       *)
(* ------------------------------------------------------------------ *)

let run_grid tech figure =
  section
    (Printf.sprintf "Figure %s (%s): SDC%% for bits of multiple registers"
       figure (tech_name tech));
  let rows = Analysis.Grid.compute (Lazy.force study) tech in
  List.iter
    (fun (r : Analysis.Grid.row) ->
      Printf.printf "%s  (single bit-flip: %s%%)\n" r.program
        (Report.Table.pct (Core.Campaign.sdc_pct r.single));
      let header =
        "max-MBF" :: List.map Core.Win.to_string Core.Table1.win_positive
      in
      let body =
        List.map
          (fun m ->
            string_of_int m
            :: List.filter_map
                 (fun ((spec : Core.Spec.t), c) ->
                   if spec.max_mbf = m then
                     Some (Report.Table.pct (Core.Campaign.sdc_pct c))
                   else None)
                 r.cells)
          Core.Table1.max_mbf_values
      in
      print_string (Report.Table.render ~header body);
      print_newline ())
    rows

let run_f4 () = run_grid Core.Technique.Read "4"
let run_f5 () = run_grid Core.Technique.Write "5"

(* ------------------------------------------------------------------ *)
(* Table III: configurations with the highest SDC percentage           *)
(* ------------------------------------------------------------------ *)

let run_t3 () =
  section "Table III: multi-bit configurations with the highest SDC%";
  let rows = Analysis.Table3.compute (Lazy.force study) in
  let body =
    List.map
      (fun (r : Analysis.Table3.row) ->
        [
          r.program;
          string_of_int r.read_best.max_mbf;
          Core.Win.to_string r.read_best.win;
          Report.Table.pct r.read_sdc_pct;
          string_of_int r.write_best.max_mbf;
          Core.Win.to_string r.write_best.win;
          Report.Table.pct r.write_sdc_pct;
        ])
      rows
  in
  print_string
    (Report.Table.render
       ~header:
         [
           "program";
           "r-maxMBF";
           "r-win";
           "r-sdc%";
           "w-maxMBF";
           "w-win";
           "w-sdc%";
         ]
       body);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table IV: transition likelihoods (RQ5)                              *)
(* ------------------------------------------------------------------ *)

let run_t4 () =
  section
    "Table IV: likelihood of Transition I (Detection->SDC) and II (Benign->SDC)";
  List.iter
    (fun tech ->
      let rows =
        Analysis.Transition.compute ~cap:t4_cap (Lazy.force study) tech
      in
      Printf.printf "%s:\n" (tech_name tech);
      let body =
        List.map
          (fun (r : Analysis.Transition.row) ->
            [
              r.program;
              Core.Spec.label r.best;
              string_of_int r.n_detection;
              Report.Table.pct (Analysis.Transition.tran1_pct r);
              string_of_int r.n_benign;
              Report.Table.pct (Analysis.Transition.tran2_pct r);
            ])
          rows
      in
      print_string
        (Report.Table.render
           ~header:
             [
               "program"; "replayed-cluster"; "n-det"; "tranI%"; "n-ben";
               "tranII%";
             ]
           body);
      print_newline ())
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* RQ summary                                                          *)
(* ------------------------------------------------------------------ *)

let run_rq () =
  section "Research-question summary (paper sections IV-B/IV-C)";
  let rq = Analysis.Rq.compute (Lazy.force study) in
  let act name (a : Analysis.Rq.activation_summary) =
    Printf.printf
      "RQ1 (%s): <=5 errors in %.1f%%, 6-10 in %.1f%%, >10 in %.1f%% of max-MBF=30 runs\n"
      name (100. *. a.share_le5) (100. *. a.share_6_10)
      (100. *. a.share_gt10)
  in
  act "inject-on-read" rq.rq1_read;
  act "inject-on-write" rq.rq1_write;
  Printf.printf
    "RQ2: single bit-flip model pessimistic for %d/%d multi-bit campaigns (%.0f%%)\n"
    rq.rq2_campaigns_single_pessimistic rq.rq2_campaigns_total
    (100.
    *. float_of_int rq.rq2_campaigns_single_pessimistic
    /. float_of_int rq.rq2_campaigns_total);
  Printf.printf
    "RQ2: single model pessimistic for %d/15 programs (read), %d/15 (write)\n"
    rq.rq2_programs_read_pessimistic rq.rq2_programs_write_pessimistic;
  let rq3 name (s : Analysis.Rq.rq3_summary) =
    Printf.printf
      "RQ3 (%s): <=3 errors reach peak SDC in %d/%d program/win pairs; worst case %d errors\n"
      name s.pairs_le3 s.pairs_total s.max_needed
  in
  rq3 "inject-on-read" rq.rq3_read;
  rq3 "inject-on-write" rq.rq3_write;
  Printf.printf
    "RQ4: peak-SDC window <=5 dynamic instructions for %d/15 programs (read) vs %d/15 (write)\n"
    (Analysis.Rq.winsize_at_most rq.rq4_read_best_wins 5)
    (Analysis.Rq.winsize_at_most rq.rq4_write_best_wins 5);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* SDC severity grading                                                *)
(* ------------------------------------------------------------------ *)

let run_severity () =
  List.iter
    (fun tech ->
      section
        (Printf.sprintf "SDC severity (%s): how much output a corruption damages"
           (tech_name tech));
      let rows = Analysis.Severity.compute (Lazy.force study) tech in
      let body =
        List.map
          (fun (r : Analysis.Severity.row) ->
            [
              r.program;
              string_of_int r.n_sdc;
              Report.Table.pct (100. *. r.mean_extent);
              Report.Table.pct (100. *. r.mean_onset);
              string_of_int r.single_byte;
              string_of_int r.wholesale;
            ])
          rows
      in
      print_string
        (Report.Table.render
           ~header:
             [ "program"; "n-sdc"; "extent%"; "onset%"; "1-byte"; ">50%" ]
           body);
      let bits = Analysis.Severity.by_bit (Lazy.force study) tech in
      let body =
        List.map
          (fun (r : Analysis.Severity.bit_row) ->
            [
              Printf.sprintf "bits %d-%d" (8 * r.bit_bucket)
                ((8 * r.bit_bucket) + 7);
              string_of_int r.n;
              Report.Table.pct
                (100. *. float_of_int r.sdc /. float_of_int (max 1 r.n));
              Report.Table.pct
                (100. *. float_of_int r.detected /. float_of_int (max 1 r.n));
            ])
          bits
      in
      print_string
        (Report.Table.render
           ~header:[ "flipped bits"; "n"; "sdc%"; "detection%" ]
           body);
      print_newline ())
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* Register-class sensitivity (the paper's explanatory mechanism)      *)
(* ------------------------------------------------------------------ *)

let run_targets () =
  List.iter
    (fun tech ->
      section
        (Printf.sprintf
           "Target classes (%s): outcome mix by flipped register kind"
           (tech_name tech));
      let pooled = Analysis.Targets.pooled (Lazy.force study) tech in
      let body =
        List.map
          (fun (r : Analysis.Targets.row) ->
            [
              Analysis.Targets.cls_name r.cls;
              string_of_int r.n;
              Report.Table.pct (Analysis.Targets.sdc_pct r);
              Report.Table.pct (Analysis.Targets.detection_pct r);
              Report.Table.pct
                (100. *. float_of_int r.benign /. float_of_int r.n);
            ])
          pooled
      in
      print_string
        (Report.Table.render
           ~header:[ "class"; "n"; "sdc%"; "detection%"; "benign%" ]
           body);
      print_newline ())
    Core.Technique.all

(* ------------------------------------------------------------------ *)
(* Hardening coverage (the paper's future-work experiment)             *)
(* ------------------------------------------------------------------ *)

let run_harden () =
  section
    "Hardening: SWIFT-style duplication coverage under single vs multi-bit \
     models";
  let rows = Analysis.Coverage.compute ~n:n_per_campaign ~seed () in
  let header =
    [
      "program"; "variant"; "technique"; "dyn-cost";
      "sdc%:single"; "sdc%:m2w1"; "sdc%:m3w1";
      "det%:single"; "det%:m2w1"; "det%:m3w1";
      "ben%:single"; "ben%:m2w1"; "ben%:m3w1";
    ]
  in
  let body =
    List.map
      (fun (r : Analysis.Coverage.row) ->
        let sdc =
          List.map
            (fun (_, c) -> Report.Table.pct (Core.Campaign.sdc_pct c))
            r.results
        in
        let det =
          List.map
            (fun (_, (c : Core.Campaign.result)) ->
              Report.Table.pct
                (100.
                *. float_of_int (c.detected + c.hang + c.no_output)
                /. float_of_int c.n))
            r.results
        in
        let ben =
          List.map
            (fun (_, (c : Core.Campaign.result)) ->
              Report.Table.pct
                (100. *. float_of_int c.benign /. float_of_int c.n))
            r.results
        in
        [
          r.program;
          Analysis.Coverage.variant_name r.variant;
          (match r.technique with Core.Technique.Read -> "read" | Write -> "write");
          Printf.sprintf "x%.2f" r.dyn_overhead;
        ]
        @ sdc @ det @ ben)
      rows
  in
  print_string (Report.Table.render ~header body);
  print_newline ();
  (* Per-domain coverage: SWIFT and TMR defend the register-operand
     model; the mem/code rows measure how much of that protection
     survives flips in live memory and in the stored program. *)
  section "Hardening: SWIFT vs TMR detection coverage per fault domain";
  let e = Option.get (Bench_suite.Registry.find "crc32") in
  let expected = e.reference () in
  let base_modl = e.build () in
  let variants =
    [
      ("crc32", Core.Workload.make ~name:"crc32" ~expected_output:expected
                  base_modl);
      ( "crc32+swift",
        Core.Workload.make ~name:"crc32+swift" ~expected_output:expected
          (Harden.Swift.apply base_modl) );
      ( "crc32+tmr",
        Core.Workload.make ~name:"crc32+tmr" ~expected_output:expected
          (Harden.Tmr.apply base_modl) );
    ]
  in
  let rows =
    Harden.Coverage.measure ~variants ~n:n_per_campaign ~seed ()
  in
  print_string
    (Report.Table.render ~header:Harden.Coverage.header
       (List.map Harden.Coverage.to_cells rows));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations (design decisions from DESIGN.md)                         *)
(* ------------------------------------------------------------------ *)

let run_ablate () =
  section "Ablation: Wald vs Wilson intervals at bench sample sizes";
  let s = Lazy.force study in
  let w = List.hd s.workloads in
  let c = Core.Runner.campaign s.runner w (Core.Spec.single Read) in
  let wald = Core.Campaign.sdc_ci c in
  let wilson = Stats.Proportion.wilson ~successes:c.sdc ~trials:c.n () in
  Printf.printf
    "%s single/read: sdc=%d/%d  wald=[%.3f,%.3f]  wilson=[%.3f,%.3f]\n"
    c.workload_name c.sdc c.n wald.lo wald.hi wilson.lo wilson.hi;
  section "Ablation: win-size=0 distinct-bit sampling (m=2)";
  let spec = Core.Spec.multi Read ~max_mbf:2 ~win:(Fixed 0) in
  let r = Core.Runner.campaign s.runner w spec in
  Printf.printf
    "%s m=2/w=0: sdc%%=%.1f with distinct bits (with replacement, ~1/width of pairs would cancel to the golden value)\n"
    r.workload_name (Core.Campaign.sdc_pct r);
  section "Ablation: unweighted vs equivalence-class-weighted SDC estimates";
  List.iter
    (fun tech ->
      List.iter
        (fun (wl : Core.Workload.t) ->
          let c = Core.Runner.campaign s.runner wl (Core.Spec.single tech) in
          Printf.printf "%-16s %-16s unweighted=%.1f%%  weighted=%.1f%%\n"
            wl.name (tech_name tech) (Core.Campaign.sdc_pct c)
            (Core.Campaign.weighted_sdc_pct c))
        (match s.workloads with a :: b :: c :: _ -> [ a; b; c ] | l -> l))
    Core.Technique.all;
  section "Ablation: win-size spacing measured on faulty vs golden timeline";
  let spacing_spec = Core.Spec.multi Write ~max_mbf:5 ~win:(Fixed 10) in
  List.iter
    (fun (label, spacing) ->
      let c =
        Core.Campaign.run ~spacing w spacing_spec
          ~n:(Core.Runner.n s.runner) ~seed:2L
      in
      Printf.printf
        "%-7s spacing: sdc%%=%.1f detection%%=%.1f mean-activated=%.2f\n" label
        (Core.Campaign.sdc_pct c)
        (100.
        *. float_of_int (c.detected + c.hang + c.no_output)
        /. float_of_int c.n)
        (let h = c.activation in
         float_of_int
           (List.fold_left
              (fun acc (k, cnt) -> acc + (k * cnt))
              0
              (Stats.Histogram.to_alist h))
         /. float_of_int (Stats.Histogram.total h)))
    [ ("faulty", `Faulty); ("golden", `Golden) ];
  section "Ablation: hang-budget factor";
  List.iter
    (fun factor ->
      let entry = Option.get (Bench_suite.Registry.find w.Core.Workload.name) in
      let wl =
        Core.Workload.make ~hang_factor:factor ~name:w.Core.Workload.name
          (entry.build ())
      in
      let c =
        Core.Campaign.run wl (Core.Spec.single Read)
          ~n:(Core.Runner.n s.runner) ~seed:1L
      in
      Printf.printf "hang_factor=%-3d  hang=%d/%d  sdc%%=%.1f\n" factor c.hang
        c.n (Core.Campaign.sdc_pct c))
    [ 2; 10; 100 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* PS: static pruning of the single-bit error space                    *)
(* ------------------------------------------------------------------ *)

let run_prune_static () =
  section
    (Printf.sprintf
       "PS: static error-space pruning (%d validation injections/technique)"
       prune_n);
  let rows =
    Analysis.Prune_static.compute ~validate_n:prune_n (Lazy.force study)
  in
  let body =
    List.map
      (fun (r : Analysis.Prune_static.row) ->
        let s = r.summary in
        [
          r.program;
          string_of_int (s.read_total + s.write_total);
          Report.Table.pct (100. *. Analysis.Prune_static.read_fraction s);
          Report.Table.pct (100. *. Analysis.Prune_static.write_fraction s);
          Report.Table.pct (100. *. Analysis.Prune_static.pruned_fraction s);
          string_of_int (r.read_checked + r.write_checked);
          string_of_int r.misclassified;
        ])
      rows
  in
  print_string
    (Report.Table.render
       ~header:
         [
           "program";
           "error-space";
           "pruned-read%";
           "pruned-write%";
           "pruned%";
           "validated";
           "misclass";
         ]
       body);
  let checked, bad =
    List.fold_left
      (fun (c, b) (r : Analysis.Prune_static.row) ->
        (c + r.read_checked + r.write_checked, b + r.misclassified))
      (0, 0) rows
  in
  Printf.printf
    "# soundness: %d injections at provably-benign sites, %d misclassified%s\n\n"
    checked bad
    (if bad = 0 then " (all benign, as proved)" else " !! UNSOUND")

(* ------------------------------------------------------------------ *)

let print_cache_stats () =
  Printf.printf "# cache: %s\n"
    (Obs.Snapshot.pp (Core.Runner.snapshot (Lazy.force runner)));
  match store with
  | Some st ->
      let ss = Store.stats st in
      Printf.printf
        "# store: %d records in %d segment(s), %d bytes (%d truncated, %d \
         corrupt dropped at open)\n"
        ss.records ss.segments ss.bytes ss.truncated ss.corrupt
  | None -> ()

let run_all () =
  run_t2 ();
  run_f1 ();
  run_f2 ();
  run_f3 ();
  run_f4 ();
  run_f5 ();
  run_t3 ();
  run_t4 ();
  run_rq ();
  run_severity ();
  run_targets ();
  run_harden ();
  run_prune_static ();
  print_cache_stats ()

let () =
  let t0 = Unix.gettimeofday () in
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Engine.Progress.with_reporter progress (fun () ->
      (* Force the study eagerly so its banner precedes the section
         headers. *)
      ignore (Lazy.force study);
      match cmd with
      | "t2" -> run_t2 ()
      | "f1" -> run_f1 ()
      | "f2" -> run_f2 ()
      | "f3" -> run_f3 ()
      | "f4" -> run_f4 ()
      | "f5" -> run_f5 ()
      | "t3" -> run_t3 ()
      | "t4" -> run_t4 ()
      | "rq" -> run_rq ()
      | "severity" -> run_severity ()
      | "targets" -> run_targets ()
      | "harden" -> run_harden ()
      | "prune-static" -> run_prune_static ()
      | "ablate" -> run_ablate ()
      | "all" -> run_all ()
      | other ->
          Printf.eprintf
            "unknown command %s (expected \
             t2|f1|f2|f3|f4|f5|t3|t4|rq|severity|targets|harden|prune-static|ablate|all)\n"
            other;
          exit 2);
  (match store with Some st -> Store.close st | None -> ());
  Printf.eprintf "# total elapsed: %.1fs\n" (Unix.gettimeofday () -. t0)
