(* Tests for CI-targeted adaptive sequential sampling: the allocation
   state machine's invariants, the load-bearing prefix property (every
   adaptive result is byte-identical to the fixed-N campaign of its
   stopping N), store-backed resume after a mid-round kill, fleet
   adaptive == in-process adaptive, and the nn fixed-point inference
   workload's known answers. *)

module A = Engine.Adaptive
module Proto = Fleet.Proto
module Coord = Fleet.Coord

let mk_workload name =
  let e = Option.get (Bench_suite.Registry.find name) in
  Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
    (e.build ())

let qsort = lazy (mk_workload "qsort")
let crc32 = lazy (mk_workload "crc32")

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "onebit-adaptive-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o755;
    d

let result_eq =
  Alcotest.testable
    (Fmt.of_to_string (fun (r : Core.Campaign.result) ->
         Printf.sprintf "<result n=%d sdc=%d>" r.n r.sdc))
    Core.Campaign.equal_result

(* ---- the allocation state machine ---- *)

(* Drive a controller against synthetic cells with fixed true SDC
   proportions: obs reports round(p * granted prefix). *)
let drive_synthetic ~target ~shard_size ~caps ~ps ~on_step () =
  let ctl = A.Control.create ~target ~shard_size caps in
  let obs i =
    let t = A.Control.closed_at ctl i in
    (t, int_of_float (Float.round (ps.(i) *. float_of_int t)))
  in
  let steps = ref 0 in
  while (not (A.Control.finished ctl)) && !steps < 10_000 do
    incr steps;
    let grants = A.Control.step ctl ~obs in
    on_step ctl grants
  done;
  Alcotest.(check bool) "terminates" true (A.Control.finished ctl);
  ctl

let test_control_closes_all () =
  let caps = [| 2000; 2000; 2000 |] and ps = [| 0.5; 0.9; 0.02 |] in
  let ctl =
    drive_synthetic ~target:0.05 ~shard_size:25 ~caps ~ps
      ~on_step:(fun _ _ -> ())
      ()
  in
  for i = 0 to 2 do
    Alcotest.(check bool) "closed" true (A.Control.closed ctl i);
    Alcotest.(check bool) "met" true (A.Control.met ctl i);
    Alcotest.(check bool) "hw at target" true
      (A.Control.half_width ctl i <= 0.05)
  done;
  (* Certainty orders the stopping points: the extreme proportion needs
     far fewer trials than the coin-flip cell. *)
  Alcotest.(check bool) "extreme p stops earlier" true
    (A.Control.closed_at ctl 2 < A.Control.closed_at ctl 0)

let test_control_cap_exhausts () =
  let ctl =
    drive_synthetic ~target:0.002 ~shard_size:25 ~caps:[| 100 |]
      ~ps:[| 0.5 |]
      ~on_step:(fun _ _ -> ())
      ()
  in
  Alcotest.(check bool) "closed" true (A.Control.closed ctl 0);
  Alcotest.(check bool) "not met" false (A.Control.met ctl 0);
  Alcotest.(check int) "ran to the cap" 100 (A.Control.closed_at ctl 0)

let prop_control_closing_monotone =
  (* Once a cell closes it stays closed, its stopping N never moves, and
     no later round grants it anything. *)
  QCheck.Test.make ~name:"control: closing is monotone" ~count:60
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5)
           (pair (int_range 1 40) (int_range 0 100)))
        (int_range 1 20))
    (fun (cells, hw10) ->
      QCheck.assume (cells <> []);
      let caps = Array.of_list (List.map (fun (c, _) -> c * 50) cells) in
      let ps =
        Array.of_list (List.map (fun (_, p) -> float_of_int p /. 100.) cells)
      in
      let target = float_of_int hw10 /. 100. in
      let was_closed = Array.make (Array.length caps) false in
      let closed_at = Array.make (Array.length caps) (-1) in
      let ok = ref true in
      ignore
        (drive_synthetic ~target ~shard_size:25 ~caps ~ps
           ~on_step:(fun ctl grants ->
             List.iter
               (fun (i, _) -> if was_closed.(i) then ok := false)
               grants;
             Array.iteri
               (fun i was ->
                 let now = A.Control.closed ctl i in
                 if was && not now then ok := false;
                 if was && A.Control.closed_at ctl i <> closed_at.(i) then
                   ok := false;
                 if now && not was then begin
                   was_closed.(i) <- true;
                   closed_at.(i) <- A.Control.closed_at ctl i
                 end)
               was_closed)
           ());
      !ok)

(* ---- prefix identity on real and random programs ---- *)

let check_prefix_identity w spec ~cap ~target ~seed =
  let cells = [ { A.c_workload = w; c_spec = spec; c_cap = cap; c_seed = seed } ] in
  let results, stats = A.run_grid ~jobs:1 ~shard_size:10 ~target cells in
  let cr = List.hd results in
  let fixed =
    Engine.run_campaign ~jobs:1 w spec ~n:cr.A.r_closed_at ~seed
  in
  Alcotest.check result_eq "adaptive == fixed-N prefix" fixed cr.A.r_result;
  Alcotest.(check int) "saved = cap - closed_at"
    (cap - cr.A.r_closed_at) stats.A.g_saved;
  cr

let test_prefix_identity_qsort () =
  let w = Lazy.force qsort in
  let cr =
    check_prefix_identity w
      (Core.Spec.single Core.Technique.Read)
      ~cap:400 ~target:0.06 ~seed:20170626L
  in
  Alcotest.(check bool) "stopped before the cap" true (cr.A.r_closed_at < 400);
  Alcotest.(check bool) "met" true cr.A.r_met

let prop_prefix_identity_random_programs =
  QCheck.Test.make
    ~name:"adaptive result == fixed-N prefix on random programs" ~count:15
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let m = Suite_differential.build_program ops seeds in
      let expected = Suite_differential.expected_output ops seeds in
      let w = Core.Workload.make ~name:"adaptive-rand" ~expected_output:expected m in
      let spec = Core.Spec.single Core.Technique.Read in
      let cells =
        [ { A.c_workload = w; c_spec = spec; c_cap = 120; c_seed = 99L } ]
      in
      let results, _ = A.run_grid ~jobs:1 ~shard_size:10 ~target:0.12 cells in
      let cr = List.hd results in
      let fixed =
        Engine.run_campaign ~jobs:1 w spec ~n:cr.A.r_closed_at ~seed:99L
      in
      Core.Campaign.equal_result fixed cr.A.r_result)

(* ---- store-backed resume ---- *)

let test_resume_mid_round () =
  let w = Lazy.force qsort in
  let spec = Core.Spec.single Core.Technique.Read in
  let cap = 300 and target = 0.06 and seed = 20170626L in
  let cells = [ { A.c_workload = w; c_spec = spec; c_cap = cap; c_seed = seed } ] in
  let baseline, _ = A.run_grid ~jobs:1 ~shard_size:25 ~target cells in
  let baseline = List.hd baseline in
  (* A run killed mid-round leaves a strict prefix of completed shards
     in the store, keyed by the cap.  Fabricate exactly that. *)
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  List.iter
    (fun (lo, hi) ->
      let shard = Core.Campaign.run_shard w spec ~seed ~lo ~hi in
      Store.add st
        (Store.key ~program:w.Core.Workload.name ~digest:w.Core.Workload.digest
           ~spec ~n:cap ~seed ~lo ~hi)
        shard)
    [ (0, 25); (25, 50); (50, 75) ];
  let resumed, stats = A.run_grid ~jobs:1 ~shard_size:25 ~store:st ~target cells in
  let resumed = List.hd resumed in
  Alcotest.check result_eq "resumed == uninterrupted" baseline.A.r_result
    resumed.A.r_result;
  Alcotest.(check int) "same stopping N" baseline.A.r_closed_at
    resumed.A.r_closed_at;
  Alcotest.(check bool) "partial work reused" true (stats.A.g_from_store > 0);
  Alcotest.(check int) "prefix covers the grants"
    resumed.A.r_closed_at
    (stats.A.g_executed + stats.A.g_from_store);
  (* Second resume: the store now holds the whole schedule, so nothing
     executes and the result is still identical. *)
  let again, stats2 = A.run_grid ~jobs:1 ~shard_size:25 ~store:st ~target cells in
  Alcotest.check result_eq "replay == uninterrupted" baseline.A.r_result
    (List.hd again).A.r_result;
  Alcotest.(check int) "replay runs nothing" 0 stats2.A.g_executed;
  Store.close st;
  (* The adaptive records are a prefix-compatible subset of a fixed-N(cap)
     run's: a fixed-N campaign over the same store recomputes nothing it
     already holds and completes the remainder. *)
  let st = Store.open_dir dir in
  let full = Engine.run_campaign ~jobs:1 ~store:st w spec ~n:cap ~seed in
  Store.close st;
  Alcotest.check result_eq "store merges into the fixed-N run"
    (Engine.run_campaign ~jobs:1 w spec ~n:cap ~seed)
    full

(* ---- jobs invariance ---- *)

(* Each round's grants go to the shard executor in one pool dispatch;
   the worker count and the store may change where a shard comes from,
   never what the sampler decides. *)
let test_jobs_invariant () =
  let cells =
    List.map
      (fun (w, spec) ->
        { A.c_workload = Lazy.force w; c_spec = spec; c_cap = 300; c_seed = 7L })
      [
        (crc32, Core.Spec.single Core.Technique.Read);
        (qsort, Core.Spec.single Core.Technique.Read);
        ( qsort,
          Core.Spec.multi Core.Technique.Write ~max_mbf:3
            ~win:(Core.Win.Fixed 10) );
      ]
  in
  let run ~jobs ~store =
    let st = if store then Some (Store.open_dir (temp_dir ())) else None in
    Fun.protect
      ~finally:(fun () -> Option.iter Store.close st)
      (fun () -> A.run_grid ~jobs ~shard_size:10 ?store:st ~target:0.06 cells)
  in
  let base, base_stats = run ~jobs:1 ~store:false in
  Alcotest.(check bool) "several rounds" true (base_stats.A.g_rounds > 1);
  List.iter
    (fun (jobs, store) ->
      let what = Printf.sprintf "jobs=%d store=%b" jobs store in
      let rs, stats = run ~jobs ~store in
      List.iter2
        (fun (a : A.cell_result) (b : A.cell_result) ->
          Alcotest.check result_eq (what ^ ": cell") a.r_result b.r_result;
          Alcotest.(check int) (what ^ ": closed_at") a.r_closed_at
            b.r_closed_at;
          Alcotest.(check bool) (what ^ ": met") a.r_met b.r_met)
        base rs;
      Alcotest.(check int) (what ^ ": rounds") base_stats.A.g_rounds
        stats.A.g_rounds;
      Alcotest.(check int) (what ^ ": executed") base_stats.A.g_executed
        stats.A.g_executed)
    [ (4, false); (1, true); (4, true) ]

(* ---- fleet adaptive == in-process adaptive ---- *)

let drive_fleet ~workers ~shard_size ~ci_target w spec ~cap ~seed =
  let cell =
    {
      Proto.c_program = w.Core.Workload.name;
      c_digest = w.Core.Workload.digest;
      c_spec = spec;
      c_n = cap;
      c_seed = seed;
    }
  in
  let c =
    Coord.create ~ttl:10. ~shard_size ~ci_target ~cells:[ cell ] ()
  in
  let now = ref 0. in
  let rec drive () =
    if not (Coord.finished c) then begin
      let grants = ref [] in
      List.iter
        (fun wk ->
          let rec go () =
            now := !now +. 0.01;
            match
              Coord.handle c ~now:!now ~conn:wk
                (Proto.Lease { worker = "w" ^ string_of_int wk })
            with
            | Proto.Grant { task; _ } ->
                grants := (wk, task) :: !grants;
                go ()
            | Proto.Wait _ | Proto.Done -> ()
            | m -> Alcotest.fail (Proto.to_line m)
          in
          go ())
        (List.init workers (fun i -> i + 1));
      List.iter
        (fun (wk, (task : Proto.task)) ->
          let shard =
            Core.Campaign.run_shard w spec ~seed ~lo:task.t_lo ~hi:task.t_hi
          in
          now := !now +. 0.01;
          ignore
            (Coord.handle c ~now:!now ~conn:wk
               (Proto.Complete
                  { worker = "w" ^ string_of_int wk; task = task.t_id; shard })))
        (List.rev !grants);
      drive ()
    end
  in
  drive ();
  c

let test_fleet_matches_inprocess () =
  let w = Lazy.force crc32 in
  let spec = Core.Spec.single Core.Technique.Read in
  let cap = 400 and target = 0.06 and seed = 20170626L in
  let results, _ =
    A.run_grid ~jobs:1 ~shard_size:25 ~target
      [ { A.c_workload = w; c_spec = spec; c_cap = cap; c_seed = seed } ]
  in
  let inproc = List.hd results in
  List.iter
    (fun workers ->
      let c =
        drive_fleet ~workers ~shard_size:25 ~ci_target:target w spec ~cap ~seed
      in
      let _, fleet_r = List.hd (Coord.results c) in
      Alcotest.check result_eq
        (Printf.sprintf "fleet(%d workers) == in-process" workers)
        inproc.A.r_result fleet_r;
      match Coord.adaptive_summary c with
      | Some [ (_, closed_at, met) ] ->
          Alcotest.(check int) "summary closed_at" inproc.A.r_closed_at
            closed_at;
          Alcotest.(check bool) "summary met" inproc.A.r_met met
      | _ -> Alcotest.fail "expected a one-cell adaptive summary")
    [ 1; 3 ]

let test_fleet_state_reports_adaptive () =
  let w = Lazy.force crc32 in
  let spec = Core.Spec.single Core.Technique.Read in
  let c =
    drive_fleet ~workers:2 ~shard_size:25 ~ci_target:0.06 w spec ~cap:400
      ~seed:20170626L
  in
  let s = Coord.state c ~now:1000. in
  Alcotest.(check bool) "adaptive flag" true s.Proto.st_adaptive;
  Alcotest.(check bool) "rounds counted" true (s.Proto.st_rounds > 0);
  Alcotest.(check int) "no open cells at the end" 0 s.Proto.st_open;
  Alcotest.(check bool) "finished" true s.Proto.st_finished

(* ---- the nn fixed-point inference workload ---- *)

let test_nn_known_answers () =
  List.iter
    (fun (name, labels) ->
      let e = Option.get (Bench_suite.Registry.find name) in
      (* Workload.make re-runs the golden execution and insists the VM
         output equal the OCaml reference byte for byte. *)
      let w =
        Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
          (e.build ())
      in
      let preds = Bench_suite.Nn.predictions w.Core.Workload.golden.output in
      Alcotest.(check (list int))
        (name ^ " classifies its inputs")
        labels preds)
    [ ("nn", Bench_suite.Nn.labels); ("nn-large", Bench_suite.Nn.labels_large) ]

let test_nn_largest_arena () =
  let arena_bytes (e : Bench_suite.Desc.t) =
    let p = Vm.Program.load (e.build ()) in
    List.fold_left (fun a (_, _, sz) -> a + sz) 0 p.Vm.Program.globals
  in
  let nn = Option.get (Bench_suite.Registry.find "nn") in
  let nn_bytes = arena_bytes nn in
  List.iter
    (fun (e : Bench_suite.Desc.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "nn arena (%d) > %s" nn_bytes e.name)
        true
        (nn_bytes > arena_bytes e))
    (Bench_suite.Registry.all @ Bench_suite.Registry.large)

let test_nn_all_domains_injectable () =
  let w = mk_workload "nn" in
  List.iter
    (fun domain ->
      let spec = Core.Spec.single ~domain Core.Technique.Read in
      let r = Core.Campaign.run w spec ~n:10 ~seed:7L in
      Alcotest.(check int)
        (Core.Domain.to_string domain ^ " outcomes account for every run")
        10
        (r.benign + r.detected + r.hang + r.no_output + r.sdc))
    [ Core.Domain.Reg; Core.Domain.Mem; Core.Domain.Code ]

let suites =
  [
    ( "adaptive",
      [
        Alcotest.test_case "control closes all cells" `Quick
          test_control_closes_all;
        Alcotest.test_case "control cap exhaustion" `Quick
          test_control_cap_exhausts;
        QCheck_alcotest.to_alcotest prop_control_closing_monotone;
        Alcotest.test_case "prefix identity (qsort)" `Slow
          test_prefix_identity_qsort;
        QCheck_alcotest.to_alcotest prop_prefix_identity_random_programs;
        Alcotest.test_case "resume after mid-round kill" `Slow
          test_resume_mid_round;
        Alcotest.test_case "fleet == in-process" `Slow
          test_fleet_matches_inprocess;
        Alcotest.test_case "jobs 1 == jobs 4, with and without a store" `Slow
          test_jobs_invariant;
        Alcotest.test_case "fleet state reports adaptive" `Slow
          test_fleet_state_reports_adaptive;
      ] );
    ( "nn workload",
      [
        Alcotest.test_case "known answers" `Quick test_nn_known_answers;
        Alcotest.test_case "largest arena in the suite" `Quick
          test_nn_largest_arena;
        Alcotest.test_case "all domains injectable" `Slow
          test_nn_all_domains_injectable;
      ] );
  ]
