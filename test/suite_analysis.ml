(* Tests for the analysis layer over a small three-program study.  The
   study is shared (and its runner cache with it) across all cases, so the
   whole suite costs one grid computation per technique. *)

let study =
  lazy (Analysis.Study.make ~n:40 ~seed:77L ~programs:[ "spmv"; "bfs"; "qsort" ] ())

let n_programs = 3

let test_study_accessors () =
  let s = Lazy.force study in
  Alcotest.(check (list string)) "names" [ "spmv"; "bfs"; "qsort" ]
    (Analysis.Study.names s);
  Alcotest.(check bool) "workload lookup" true
    ((Analysis.Study.workload s "bfs").name = "bfs");
  Alcotest.(check bool) "unknown program raises" true
    (match Analysis.Study.workload s "zz" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown program in make raises" true
    (match Analysis.Study.make ~programs:[ "zz" ] () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_table2 () =
  let s = Lazy.force study in
  let rows = Analysis.Table2.compute s in
  Alcotest.(check int) "one row per program" n_programs (List.length rows);
  List.iter
    (fun (r : Analysis.Table2.row) ->
      let w = Analysis.Study.workload s r.program in
      Alcotest.(check int) "read cands match workload" w.checkpoints.read_cands
        r.read_cands;
      Alcotest.(check bool) "asymmetry" true (r.read_cands > r.write_cands);
      Alcotest.(check int) "static read prediction exact" r.read_cands
        r.pred_reads;
      Alcotest.(check int) "static write prediction exact" r.write_cands
        r.pred_writes)
    rows

let test_fig1 () =
  let s = Lazy.force study in
  List.iter
    (fun tech ->
      let rows = Analysis.Fig1.compute s tech in
      Alcotest.(check int) "row count" n_programs (List.length rows);
      List.iter
        (fun (r : Analysis.Fig1.row) ->
          let c = r.result in
          Alcotest.(check int) "sums to n" c.n
            (c.benign + c.detected + c.hang + c.no_output + c.sdc);
          Alcotest.(check bool) "single-bit spec" true
            (Core.Spec.is_single c.spec))
        rows)
    Core.Technique.all

let test_fig2 () =
  let s = Lazy.force study in
  let rows = Analysis.Fig2.compute s Core.Technique.Write in
  Alcotest.(check int) "row count" n_programs (List.length rows);
  List.iter
    (fun (r : Analysis.Fig2.row) ->
      Alcotest.(check int) "11 points (1 + 10 mbf values)" 11
        (List.length r.by_mbf);
      Alcotest.(check int) "first point is single" 1 (fst (List.hd r.by_mbf));
      List.iter
        (fun (m, (c : Core.Campaign.result)) ->
          Alcotest.(check int) "mbf matches spec" m c.spec.max_mbf;
          if m > 1 then
            Alcotest.(check bool) "win = 0" true
              (Core.Win.equal c.spec.win (Fixed 0)))
        r.by_mbf)
    rows

let test_fig3 () =
  let s = Lazy.force study in
  let d = Analysis.Fig3.compute s Core.Technique.Read in
  (* programs x positive windows x n experiments *)
  Alcotest.(check int) "total experiments" (n_programs * 8 * 40) d.total;
  let all =
    Analysis.Fig3.share d ~lo:0 ~hi:5
    +. Analysis.Fig3.share d ~lo:6 ~hi:10
    +. Analysis.Fig3.share d ~lo:11 ~hi:max_int
  in
  Alcotest.(check bool) "shares sum to 1" true (Float.abs (all -. 1.0) < 1e-9);
  Alcotest.(check bool) "activation capped at 30" true
    (Stats.Histogram.max_key d.histogram <= 30)

let test_grid () =
  let s = Lazy.force study in
  let rows = Analysis.Grid.compute s Core.Technique.Write in
  Alcotest.(check int) "row count" n_programs (List.length rows);
  List.iter
    (fun (r : Analysis.Grid.row) ->
      Alcotest.(check int) "80 clusters" 80 (List.length r.cells);
      let spec, best = Analysis.Grid.best_multi r in
      Alcotest.(check bool) "best is max" true
        (List.for_all
           (fun (_, c) ->
             Core.Campaign.sdc_pct c <= Core.Campaign.sdc_pct best)
           r.cells);
      Alcotest.(check bool) "best spec is multi" true
        (not (Core.Spec.is_single spec));
      (* with an enormous slack everything is pessimistic *)
      Alcotest.(check bool) "slack monotonicity" true
        (Analysis.Grid.single_is_pessimistic ~slack_pp:100.0 r);
      List.iter
        (fun win ->
          match Analysis.Grid.min_mbf_reaching_best r ~win with
          | Some m ->
              Alcotest.(check bool) "min mbf in range" true (m >= 2 && m <= 30)
          | None -> Alcotest.fail "expected a minimum max-MBF")
        Core.Table1.win_positive)
    rows

let test_table3 () =
  let s = Lazy.force study in
  let rows = Analysis.Table3.compute s in
  Alcotest.(check int) "row count" n_programs (List.length rows);
  List.iter
    (fun (r : Analysis.Table3.row) ->
      Alcotest.(check bool) "read best is multi" true (r.read_best.max_mbf >= 2);
      Alcotest.(check bool) "write best is multi" true
        (r.write_best.max_mbf >= 2);
      Alcotest.(check bool) "sdc pcts in range" true
        (r.read_sdc_pct >= 0. && r.read_sdc_pct <= 100.
        && r.write_sdc_pct >= 0.
        && r.write_sdc_pct <= 100.))
    rows

let test_transition () =
  let s = Lazy.force study in
  let rows = Analysis.Transition.compute ~cap:25 s Core.Technique.Write in
  Alcotest.(check int) "row count" n_programs (List.length rows);
  List.iter
    (fun (r : Analysis.Transition.row) ->
      Alcotest.(check bool) "cap respected" true
        (r.n_detection <= 25 && r.n_benign <= 25);
      Alcotest.(check bool) "tran1 bounded" true
        (r.tran1 >= 0 && r.tran1 <= r.n_detection);
      Alcotest.(check bool) "tran2 bounded" true
        (r.tran2 >= 0 && r.tran2 <= r.n_benign);
      Alcotest.(check bool) "pcts valid" true
        (Analysis.Transition.tran1_pct r >= 0.
        && Analysis.Transition.tran1_pct r <= 100.))
    rows

let test_rq () =
  let s = Lazy.force study in
  let rq = Analysis.Rq.compute s in
  let near_one a = Float.abs (a -. 1.0) < 1e-9 in
  Alcotest.(check bool) "rq1 read shares sum" true
    (near_one
       (rq.rq1_read.share_le5 +. rq.rq1_read.share_6_10
      +. rq.rq1_read.share_gt10));
  Alcotest.(check int) "rq2 totals" (n_programs * 80 * 2)
    rq.rq2_campaigns_total;
  Alcotest.(check bool) "rq2 covered <= total" true
    (rq.rq2_campaigns_single_pessimistic <= rq.rq2_campaigns_total);
  Alcotest.(check int) "rq3 pairs" (n_programs * 8) rq.rq3_read.pairs_total;
  Alcotest.(check bool) "rq3 le3 <= total" true
    (rq.rq3_read.pairs_le3 <= rq.rq3_read.pairs_total);
  Alcotest.(check int) "rq4 lists sized" n_programs
    (List.length rq.rq4_read_best_wins);
  Alcotest.(check bool) "winsize_at_most monotone" true
    (Analysis.Rq.winsize_at_most rq.rq4_write_best_wins 1000
    >= Analysis.Rq.winsize_at_most rq.rq4_write_best_wins 5)

let test_grid_deterministic_via_cache () =
  let s = Lazy.force study in
  let a = Analysis.Grid.compute s Core.Technique.Write in
  let b = Analysis.Grid.compute s Core.Technique.Write in
  List.iter2
    (fun (ra : Analysis.Grid.row) (rb : Analysis.Grid.row) ->
      Alcotest.(check int) "same single sdc" ra.single.sdc rb.single.sdc)
    a b

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "study accessors" `Quick test_study_accessors;
        Alcotest.test_case "table2" `Quick test_table2;
        Alcotest.test_case "fig1" `Quick test_fig1;
        Alcotest.test_case "fig2" `Quick test_fig2;
        Alcotest.test_case "fig3" `Slow test_fig3;
        Alcotest.test_case "grid (fig4/5)" `Slow test_grid;
        Alcotest.test_case "table3" `Slow test_table3;
        Alcotest.test_case "transition (table4)" `Slow test_transition;
        Alcotest.test_case "rq summary" `Slow test_rq;
        Alcotest.test_case "grid deterministic" `Slow
          test_grid_deterministic_via_cache;
      ] );
  ]
