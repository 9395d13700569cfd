(* Tests for the multicore campaign engine: the domain pool and its
   shared task cursor, determinism under parallelism (the load-bearing
   property: any worker count yields a bit-identical Campaign.result),
   and resume-after-kill through the result store. *)

let workload =
  lazy
    (let e = Option.get (Bench_suite.Registry.find "spmv") in
     Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
       (e.build ()))

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "onebit-engine-test-%d-%d" (Unix.getpid ()) !counter)

(* ---- pool ---- *)

(* Every task runs exactly once, with no task list (nothing to run) and
   with more workers than tasks (no worker beyond the task count). *)
let test_pool_runs_every_task () =
  List.iter
    (fun (ntasks, jobs) ->
      let hits = Array.make ntasks 0 and workers = Array.make ntasks (-1) in
      Engine.Pool.run ~jobs
        (Array.init ntasks (fun i ~worker ->
             hits.(i) <- hits.(i) + 1;
             workers.(i) <- worker));
      let what = Printf.sprintf "%d tasks, jobs=%d" ntasks jobs in
      Alcotest.(check bool) (what ^ ": each task ran exactly once") true
        (Array.for_all (( = ) 1) hits);
      Alcotest.(check bool) (what ^ ": worker ids below min jobs ntasks") true
        (Array.for_all (fun w -> w >= 0 && w < min jobs ntasks) workers))
    [ (64, 4); (0, 4); (3, 8); (5, 1) ]

(* A raising task stops only its own worker: the others still run every
   remaining task once before the first failure re-raises. *)
let test_pool_propagates_failure () =
  let hits = Array.make 16 0 in
  let tasks =
    Array.init 16 (fun i ~worker:_ ->
        hits.(i) <- hits.(i) + 1;
        if i = 7 then failwith "boom")
  in
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      Engine.Pool.run ~jobs:4 tasks);
  Alcotest.(check (array int)) "every task ran exactly once"
    (Array.make 16 1) hits

(* ---- shards ---- *)

let test_shards_tile () =
  Alcotest.(check (list (pair int int)))
    "exact tiling"
    [ (0, 25); (25, 50); (50, 60) ]
    (Engine.shards_of ~n:60 ~shard_size:25);
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Engine.shards_of: n must be positive") (fun () ->
      ignore (Engine.shards_of ~n:0 ~shard_size:25))

(* ---- determinism under parallelism ---- *)

let test_parallel_equals_sequential () =
  let w = Lazy.force workload in
  let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 5) in
  let n = 120 and seed = 99L in
  let seq = Core.Campaign.run w spec ~n ~seed in
  let par = Engine.run_campaign ~jobs:4 w spec ~n ~seed in
  Alcotest.(check bool) "jobs=4 bit-identical" true
    (Core.Campaign.equal_result seq par)

let test_keep_experiments_parallel () =
  let w = Lazy.force workload in
  let spec = Core.Spec.single Write in
  let n = 60 and seed = 3L in
  let seq = Core.Campaign.run ~keep_experiments:true w spec ~n ~seed in
  let par =
    Engine.run_campaign ~jobs:4 ~keep_experiments:true w spec ~n ~seed
  in
  Alcotest.(check int) "experiments kept" n (Array.length par.experiments);
  Alcotest.(check bool) "records identical" true
    (Core.Campaign.equal_result seq par)

let prop_jobs_invariant =
  QCheck.Test.make ~name:"jobs=1 and jobs=8 give identical results" ~count:6
    QCheck.(
      quad (int_range 10 60) (int_range 1 4) (int_range 0 8)
        (int_range 0 10000))
    (fun (n, max_mbf, win, seed_int) ->
      let w = Lazy.force workload in
      let spec =
        if max_mbf = 1 then Core.Spec.single Read
        else Core.Spec.multi Read ~max_mbf ~win:(Fixed win)
      in
      let seed = Int64.of_int seed_int in
      let a = Engine.run_campaign ~jobs:1 ~shard_size:7 w spec ~n ~seed in
      let b = Engine.run_campaign ~jobs:8 ~shard_size:7 w spec ~n ~seed in
      Core.Campaign.equal_result a b)

(* ---- store integration ---- *)

let test_store_satisfies_second_run () =
  let w = Lazy.force workload in
  let spec = Core.Spec.single Read in
  let n = 100 and seed = 11L in
  let store = Store.open_dir (temp_dir ()) in
  let r1, s1 = Engine.run_campaign_stats ~jobs:2 ~store w spec ~n ~seed in
  Alcotest.(check int) "first run executes all shards" 4 s1.shards_executed;
  let r2, s2 = Engine.run_campaign_stats ~jobs:2 ~store w spec ~n ~seed in
  Alcotest.(check int) "second run executes nothing" 0 s2.shards_executed;
  Alcotest.(check int) "second run reads 4 shards" 4 s2.shards_from_store;
  Alcotest.(check int) "experiment accounting" n s2.experiments_from_store;
  Alcotest.(check bool) "stored result identical" true
    (Core.Campaign.equal_result r1 r2);
  Store.close store

let test_resume_after_kill () =
  let w = Lazy.force workload in
  let spec = Core.Spec.single Write in
  let n = 100 and seed = 5L in
  let reference = Core.Campaign.run w spec ~n ~seed in
  let dir = temp_dir () in
  let store = Store.open_dir dir in
  ignore (Engine.run_campaign_stats ~store w spec ~n ~seed);
  Store.close store;
  (* Simulate a kill after two durable records: keep the first two lines
     of the segment and append half of the third, as an interrupted
     append would leave it. *)
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> function
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one segment, got %d" (List.length l)
  in
  let lines =
    In_channel.with_open_bin seg In_channel.input_all
    |> String.split_on_char '\n'
  in
  let l1, l2, l3 =
    match lines with
    | a :: b :: c :: _ -> (a, b, c)
    | _ -> Alcotest.fail "expected at least 3 records"
  in
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc
        (l1 ^ "\n" ^ l2 ^ "\n" ^ String.sub l3 0 (String.length l3 / 2)));
  (* Reopen: the half-record is a truncated tail, the two whole records
     are live, and the engine re-executes only the missing shards. *)
  let store = Store.open_dir dir in
  Alcotest.(check int) "truncated tail detected" 1 (Store.stats store).truncated;
  Alcotest.(check int) "two records survive" 2 (Store.stats store).records;
  let r, rs = Engine.run_campaign_stats ~jobs:2 ~store w spec ~n ~seed in
  Alcotest.(check int) "two shards from store" 2 rs.shards_from_store;
  Alcotest.(check int) "two shards re-executed" 2 rs.shards_executed;
  Alcotest.(check bool) "resumed result identical" true
    (Core.Campaign.equal_result reference r);
  (* And the store is whole again, also for the next process: the
     resumed appends did not merge with the partial line. *)
  Store.close store;
  let store = Store.open_dir dir in
  Alcotest.(check int) "no record damaged by the resume" 0
    (Store.stats store).corrupt;
  Alcotest.(check int) "every record found" 4 (Store.stats store).records;
  let _, rs' = Engine.run_campaign_stats ~store w spec ~n ~seed in
  Alcotest.(check int) "store repaired" 4 rs'.shards_from_store;
  Store.close store

let test_runner_cache_stats () =
  let w = Lazy.force workload in
  let store = Store.open_dir (temp_dir ()) in
  let runner = Engine.runner ~n:50 ~seed:2L ~jobs:2 ~store () in
  let spec = Core.Spec.single Read in
  ignore (Core.Runner.campaign runner w spec);
  ignore (Core.Runner.campaign runner w spec);
  let s = Core.Runner.snapshot runner in
  Alcotest.(check int) "one dispatch" 1 s.dispatched;
  Alcotest.(check int) "one memory hit" 1 s.mem_hits;
  Alcotest.(check int) "shards executed" 2 s.shards_executed;
  Alcotest.(check int) "no store hits yet" 0 s.shards_from_store;
  Alcotest.(check int) "experiments executed" 50 s.experiments_executed;
  (* A fresh runner over the same store answers from disk. *)
  let runner' = Engine.runner ~n:50 ~seed:2L ~jobs:2 ~store () in
  ignore (Core.Runner.campaign runner' w spec);
  let s' = Core.Runner.snapshot runner' in
  Alcotest.(check int) "store hits" 2 s'.shards_from_store;
  Alcotest.(check int) "nothing executed" 0 s'.shards_executed;
  Alcotest.(check int) "experiments from store" 50 s'.experiments_from_store;
  Store.close store

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "pool runs every task" `Quick
          test_pool_runs_every_task;
        Alcotest.test_case "pool propagates failure" `Quick
          test_pool_propagates_failure;
        Alcotest.test_case "shards tile [0,n)" `Quick test_shards_tile;
        Alcotest.test_case "parallel = sequential" `Quick
          test_parallel_equals_sequential;
        Alcotest.test_case "keep_experiments parallel" `Quick
          test_keep_experiments_parallel;
        QCheck_alcotest.to_alcotest prop_jobs_invariant;
        Alcotest.test_case "store satisfies second run" `Quick
          test_store_satisfies_second_run;
        Alcotest.test_case "resume after kill" `Quick test_resume_after_kill;
        Alcotest.test_case "runner cache stats" `Quick test_runner_cache_stats;
      ] );
  ]
