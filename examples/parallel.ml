(* Parallel campaigns with a crash-tolerant result store.

   Run with:  dune exec examples/parallel.exe

   The engine shards a campaign into fixed [lo, hi) ranges and executes
   them on a pool of worker domains.  Each experiment draws its seed from
   `Prng.split_at base i`, so the merged result is bit-identical at any
   worker count.  With a store attached, finished shards are appended
   durably as they complete: a killed run resumes where it stopped, and a
   later run with the same (program, spec, n, seed) reuses the records. *)

let () =
  let entry = Option.get (Bench_suite.Registry.find "spmv") in
  let workload =
    Core.Workload.make ~name:entry.name ~expected_output:(entry.reference ())
      (entry.build ())
  in
  let spec = Core.Spec.multi Core.Technique.Read ~max_mbf:4 ~win:(Fixed 10) in
  let n = 400 and seed = 42L in

  (* 1. Sequential reference. *)
  let seq = Core.Campaign.run workload spec ~n ~seed in

  (* 2. Same campaign on 4 worker domains: identical result, by design. *)
  let par = Engine.run_campaign ~jobs:4 workload spec ~n ~seed in
  Printf.printf "4 domains vs sequential: %s\n"
    (if Core.Campaign.equal_result seq par then "bit-identical" else "DIFFER");

  (* 3. Attach a store.  The first run executes and persists every shard;
        the second finds them all and executes nothing. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "onebit-example" in
  let store = Store.open_dir dir in
  let r1, s1 = Engine.run_campaign_stats ~jobs:4 ~store workload spec ~n ~seed in
  let r2, s2 = Engine.run_campaign_stats ~jobs:4 ~store workload spec ~n ~seed in
  Printf.printf "first run:  %d shards executed, %d from store\n"
    s1.shards_executed s1.shards_from_store;
  Printf.printf "second run: %d shards executed, %d from store\n"
    s2.shards_executed s2.shards_from_store;
  Printf.printf "stored result: %s\n"
    (if Core.Campaign.equal_result seq r1 && Core.Campaign.equal_result seq r2
     then "bit-identical" else "DIFFER");

  (* 4. A memoising runner whose misses run on the engine — the same
        object `bench/main.exe` hands to every analysis. *)
  let runner = Engine.runner ~n ~seed ~jobs:4 ~store () in
  ignore (Core.Runner.campaign runner workload spec);
  ignore (Core.Runner.campaign runner workload spec);
  print_endline (Obs.Snapshot.pp (Core.Runner.snapshot runner));
  Store.close store;
  Printf.printf "sdc: %d/%d (%.1f%%)\n" seq.sdc seq.n (Core.Campaign.sdc_pct seq)
