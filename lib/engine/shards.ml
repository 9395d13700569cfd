(* Shards: the canonical tiling of a campaign and the one executor that
   runs them.

   A shard is a contiguous range [lo, hi) of one campaign's experiment
   indices.  Boundaries depend only on (n, shard_size), and a prefix of
   the tiling up to any boundary b is itself [tile ~n:b ~shard_size] —
   the property that makes adaptive prefixes byte-identical to fixed-N
   campaigns.

   Shards are independent faulty runs, each classified against the
   golden output, so they can run in any order and persist in any
   order.  The fixed-N engine, every adaptive round, the incremental
   engine's mem/code fallback and every fleet worker's grants all hand
   their shards to [run], which is the only code that executes shards,
   and the only place that reads them from the store and appends
   them. *)

let tile ~n ~shard_size =
  if n <= 0 then invalid_arg "Engine.shards_of: n must be positive";
  let s = max 1 shard_size in
  let rec go lo acc =
    if lo >= n then List.rev acc else go (lo + s) ((lo, min n (lo + s)) :: acc)
  in
  go 0 []

type job = {
  workload : Core.Workload.t;
  spec : Core.Spec.t;
  n : int;
  seed : int64;
  lo : int;
  hi : int;
}

let span_if_tracing name f =
  if Obs.Trace.enabled () then Obs.Trace.with_span name f else f ()

let label (w : Core.Workload.t) spec = w.name ^ " " ^ Core.Spec.label spec

let run ?(jobs = 1) ?store ?progress ?(keep_experiments = false) js =
  (* Kept experiment records are never persisted, so a kept run is
     computed in full (still in parallel) rather than read back. *)
  let store = if keep_experiments then None else store in
  let key j =
    Store.key ~program:j.workload.name ~digest:j.workload.digest ~spec:j.spec
      ~n:j.n ~seed:j.seed ~lo:j.lo ~hi:j.hi
  in
  let results =
    Array.map
      (fun j -> Option.bind store (fun st -> Store.lookup st (key j)))
      js
  in
  let hits, todo =
    List.partition
      (fun i -> Option.is_some results.(i))
      (List.init (Array.length js) Fun.id)
  in
  (match progress with
  | Some p ->
      List.iter
        (fun i ->
          Progress.record_shard p ~from_store:true (Option.get results.(i)))
        hits
  | None -> ());
  let task i ~worker =
    let j = js.(i) in
    span_if_tracing
      (Printf.sprintf "shard %d-%d %s" j.lo j.hi (label j.workload j.spec))
    @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let shard =
      Core.Campaign.run_shard ~keep_experiments j.workload j.spec ~seed:j.seed
        ~lo:j.lo ~hi:j.hi
    in
    results.(i) <- Some shard;
    Option.iter (fun st -> Store.add st (key j) shard) store;
    match progress with
    | Some p ->
        Progress.record_shard p ~worker
          ~busy:(Unix.gettimeofday () -. t0)
          ~from_store:false shard
    | None -> ()
  in
  Pool.run
    ~jobs:(Core.Config.resolve_jobs jobs)
    (Array.of_list (List.map task todo));
  let exps = List.fold_left (fun acc i -> acc + js.(i).hi - js.(i).lo) 0 in
  let stats =
    {
      Obs.Snapshot.zero with
      shards_from_store = List.length hits;
      shards_executed = List.length todo;
      experiments_from_store = exps hits;
      experiments_executed = exps todo;
    }
  in
  Obs.Snapshot.count stats;
  (Array.map Option.get results, stats)

let campaign ?jobs ?shard_size ?store ?progress ?keep_experiments workload
    spec ~n ~seed =
  if n <= 0 then invalid_arg "Engine.run_campaign: n must be positive";
  let shard_size = Core.Config.resolve_shard_size shard_size in
  let label = label workload spec in
  span_if_tracing ("campaign " ^ label) @@ fun () ->
  Option.iter (fun p -> Progress.begin_campaign p ~label ~total:n) progress;
  let job_of (lo, hi) = { workload; spec; n; seed; lo; hi } in
  let shards, stats =
    run ?jobs ?store ?progress ?keep_experiments
      (Array.of_list (List.map job_of (tile ~n ~shard_size)))
  in
  ( Core.Campaign.merge ~workload_name:workload.name spec ~n ~seed
      (Array.to_list shards),
    stats )
