(* The traced run: per-layer numbers for one workload.

   Metrics collection and [Obs.Trace] are switched on, and the benchmark
   brackets every call it makes into a layer with its own span ([Wl.span];
   no tracing goes inside lib/).  Three passes follow set-up:

   - the real study through [Wl.study] — Engine pool time, memory and
     batch counters, adaptive round timestamps from the [?log] callback;
   - the drill-down: the same experiments driven through each layer's
     public functions ([Adaptive.Control.step], [Campaign.run_shard],
     [Store.add], [Campaign.merge], then [Store.open_dir],
     [Store.lookup] and [Campaign.merge] again for the resume path), so
     every boundary the entry points hide gets its own span;
   - the stage sample: the first experiments of every cell split into
     [Injector.create] -> [Checkpoint.select] -> [Experiment.run_raw] ->
     [Experiment.conclude].

   A fixed-N workload is driven through [Control] with its first grant
   equal to the cap, which grants exactly the fixed-N shards in one
   round. *)

open Common
module J = Store.Jsonx

let span = Wl.span

(* Nearest-rank percentile of a non-empty list. *)
let pct p l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Sum of every sample of a metric, over all label sets. *)
let metric_sum name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.name <> name then acc
      else
        match s.value with
        | Counter c -> acc +. float_of_int c
        | Gauge g -> acc +. g
        | Histogram _ -> acc)
    0.0 (Obs.Metrics.snapshot ())

(* The benchmark spans' self time: each span's duration minus the part
   its child benchmark spans cover (library spans are transparent). *)
let self_times events =
  let self = Hashtbl.create 16 and total = Hashtbl.create 16 in
  let stacks = Hashtbl.create 4 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if String.length e.name > 3 && String.sub e.name 0 3 = "pb." then begin
        let name = String.sub e.name 3 (String.length e.name - 3) in
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.dom) in
        match (e.ph, stack) with
        | 'B', _ -> Hashtbl.replace stacks e.dom ((name, e.ts, ref 0.0) :: stack)
        | 'E', (n, t0, child) :: rest ->
            let d = e.ts -. t0 in
            bump self n (d -. !child);
            bump total n d;
            (match rest with (_, _, c) :: _ -> c := !c +. d | [] -> ());
            Hashtbl.replace stacks e.dom rest
        | _ -> ()
      end)
    events;
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  (get self, get total)

let layers =
  [
    "workload.make"; "checkpoint.record"; "engine.study"; "adaptive.step";
    "campaign.run_shard"; "store.add"; "campaign.merge"; "store.open";
    "store.lookup"; "injector.create"; "checkpoint.select";
    "experiment.run_raw"; "experiment.conclude"; "drill";
  ]

type drill = {
  d_results : Core.Campaign.result list;
  d_resumed : Core.Campaign.result list;
  d_rounds : int;
  d_round_s : float list;
  d_executed : int;
  d_saved : int;
  d_shard_s : float list;
  d_merge_s : float;
  d_append_s : float list;
  d_open_s : float;
  d_lookup_s : float;
  d_lookups : int;
  d_bytes : int;
}

let drill (t : Wl.t) ws ~seed =
  span "drill" @@ fun () ->
  let cells = Array.of_list (Wl.cells t ws) in
  let shard_size = (Core.Config.of_env ()).shard_size in
  let ctl =
    match t.target with
    | Some target ->
        Engine.Adaptive.Control.create ~target ~shard_size
          (Array.map (fun _ -> t.n) cells)
    | None ->
        Engine.Adaptive.Control.create ~initial:t.n ~target:0.5 ~shard_size
          (Array.map (fun _ -> t.n) cells)
  in
  let done_ = Array.map (fun _ -> Hashtbl.create 16) cells in
  let obs i =
    Hashtbl.fold (fun _ (s : Core.Campaign.shard) (n, k) -> (n + s.hi - s.lo, k + s.s_sdc))
      done_.(i) (0, 0)
  in
  let key i (lo, hi) =
    let w, spec = cells.(i) in
    Store.key ~program:w.Core.Workload.name ~digest:w.digest ~spec ~n:t.n ~seed ~lo ~hi
  in
  let store = span "store.open" (fun () -> open_store "drill") in
  let shard_s = ref [] and append_s = ref [] and round_s = ref [] in
  let executed = ref 0 in
  let rec rounds () =
    let t0 = now () in
    match span "adaptive.step" (fun () -> Engine.Adaptive.Control.step ctl ~obs) with
    | [] -> ()
    | grants ->
        List.iter
          (fun (i, ranges) ->
            let w, spec = cells.(i) in
            List.iter
              (fun (lo, hi) ->
                let s, dt =
                  timed (fun () ->
                      span "campaign.run_shard" (fun () ->
                          Core.Campaign.run_shard w spec ~seed ~lo ~hi))
                in
                shard_s := dt :: !shard_s;
                executed := !executed + (hi - lo);
                Hashtbl.replace done_.(i) lo s;
                let (), dt = timed (fun () -> span "store.add" (fun () -> Store.add store (key i (lo, hi)) s)) in
                append_s := dt :: !append_s)
              ranges)
          grants;
        round_s := (now () -. t0) :: !round_s;
        rounds ()
  in
  rounds ();
  let bytes = (Store.stats store).bytes in
  Store.close store;
  let merge lookup =
    Array.to_list
      (Array.mapi
         (fun i (w, spec) ->
           let n = Engine.Adaptive.Control.closed_at ctl i in
           let shards =
             List.map (fun r -> lookup i r) (Engine.shards_of ~n ~shard_size)
           in
           span "campaign.merge" (fun () ->
               Core.Campaign.merge ~workload_name:w.Core.Workload.name spec ~n ~seed shards))
         cells)
  in
  let results, merge_s = timed (fun () -> merge (fun i (lo, _) -> Hashtbl.find done_.(i) lo)) in
  (* The resume path: reopen the store and read every shard back. *)
  let store, open_s = timed (fun () -> span "store.open" (fun () -> open_store "drill")) in
  let lookups = ref 0 and lookup_s = ref 0.0 in
  let resumed =
    merge (fun i r ->
        let s, dt = timed (fun () -> span "store.lookup" (fun () -> Store.lookup store (key i r))) in
        incr lookups;
        lookup_s := !lookup_s +. dt;
        match s with Some s -> s | None -> failwith "drill: shard missing from store")
  in
  Store.close store;
  {
    d_results = results;
    d_resumed = resumed;
    d_rounds = Engine.Adaptive.Control.rounds ctl;
    d_round_s = List.rev !round_s;
    d_executed = !executed;
    d_saved =
      Array.fold_left ( + ) 0
        (Array.mapi (fun i _ -> t.n - Engine.Adaptive.Control.closed_at ctl i) cells);
    d_shard_s = !shard_s;
    d_merge_s = merge_s;
    d_append_s = !append_s;
    d_open_s = open_s;
    d_lookup_s = !lookup_s;
    d_lookups = !lookups;
    d_bytes = bytes;
  }

(* The stage sample: the first [k] experiments of every cell, stage by
   stage. *)
let stages (t : Wl.t) ws ~seed ~k =
  let create_s = ref 0.0 and conclude_s = ref 0.0 and run_s = ref [] in
  let count = ref 0 and activated = ref 0 and suffix = ref 0 and dyn = ref 0 in
  List.iter
    (fun ((w : Core.Workload.t), (spec : Core.Spec.t)) ->
      let base = Prng.of_seed seed in
      let candidates = Core.Workload.candidates w spec in
      let set = Core.Workload.ensure_checkpoints w in
      let axis =
        match (spec.domain, spec.technique) with
        | Core.Domain.Reg, Core.Technique.Read -> `Read
        | Core.Domain.Reg, Core.Technique.Write -> `Write
        | (Core.Domain.Mem | Core.Domain.Code), _ -> `Dyn
      in
      for i = 0 to min k t.n - 1 do
        let inj, dt =
          timed (fun () ->
              span "injector.create" (fun () ->
                  Core.Injector.create ~spec ~candidates (Prng.split_at base i)))
        in
        create_s := !create_s +. dt;
        let point =
          span "checkpoint.select" (fun () ->
              match (set, Core.Injector.first_target inj) with
              | Some set, Some target -> Vm.Checkpoint.select set ~axis ~target
              | _ -> None)
        in
        let res, dt =
          timed (fun () -> span "experiment.run_raw" (fun () -> Core.Experiment.run_raw w inj))
        in
        run_s := dt :: !run_s;
        let e, dt =
          timed (fun () -> span "experiment.conclude" (fun () -> Core.Experiment.conclude w inj res))
        in
        conclude_s := !conclude_s +. dt;
        let skipped = match point with Some p -> p.ck_dyn | None -> 0 in
        incr count;
        activated := !activated + e.activated;
        suffix := !suffix + (res.dyn_count - skipped);
        dyn := !dyn + res.dyn_count
      done)
    (Wl.cells t ws);
  let n = float_of_int !count in
  [
    ("injector.create_us", !create_s /. n *. 1e6, "us");
    ("injector.activated_per_exp", float_of_int !activated /. n, "flips");
    ("experiment.run_us.p50", pct 0.5 !run_s *. 1e6, "us");
    ("experiment.run_us.p99", pct 0.99 !run_s *. 1e6, "us");
    ("experiment.conclude_us", !conclude_s /. n *. 1e6, "us");
    ("experiment.sampled", n, "count");
    ("vm.suffix_instrs", float_of_int !suffix, "count");
    ("vm.prefix_skipped_frac", float_of_int (!dyn - !suffix) /. float_of_int !dyn, "fraction");
  ]

(* Golden-run speed of the compiled VM, no events attached. *)
let golden_rate ws =
  let instrs = ref 0 and secs = ref 0.0 in
  List.iter
    (fun (w : Core.Workload.t) ->
      for _ = 1 to 5 do
        let r, dt = timed (fun () -> Vm.Code.run ~budget:Vm.Exec.golden_budget w.code) in
        instrs := !instrs + r.dyn_count;
        secs := !secs +. dt
      done)
    ws;
  float_of_int !instrs /. !secs /. 1e6

let checkpoint_shape ws =
  List.fold_left
    (fun (points, bytes) (w : Core.Workload.t) ->
      match Core.Workload.ensure_checkpoints w with
      | None -> (points, bytes)
      | Some set ->
          Array.fold_left
            (fun (p, b) (pt : Vm.Checkpoint.point) ->
              ( p + 1,
                Array.fold_left (fun b (_, page) -> b + Bytes.length page) b pt.ck_pages ))
            (points, bytes) set.points)
    (0, 0) ws

(* Benign, SDC and detection shares and mean activated flips, per
   fault domain, over the study's merged cells. *)
let outcome_mix (rs : Core.Campaign.result list) =
  List.concat_map
    (fun d ->
      let mine = List.filter (fun (r : Core.Campaign.result) -> r.spec.domain = d) rs in
      let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 mine) in
      let n = sum (fun r -> r.n) in
      let frac x = if n = 0.0 then 0.0 else x /. n in
      let flips =
        sum (fun r ->
            List.fold_left (fun a (k, c) -> a + (k * c)) 0
              (Stats.Histogram.to_alist r.activation))
      in
      let p = "mix." ^ Core.Domain.to_string d ^ "." in
      [
        (p ^ "benign_frac", frac (sum (fun r -> r.benign)), "fraction");
        (p ^ "sdc_frac", frac (sum (fun r -> r.sdc)), "fraction");
        (p ^ "detection_frac", frac (sum (fun r -> r.detected + r.hang + r.no_output)), "fraction");
        (p ^ "activated_mean", frac flips, "flips");
      ])
    Core.Domain.all

let trace () =
  let t, size = load () in
  let seed = Int64.of_int !Common.seed in
  Obs.set_enabled true;
  Obs.Trace.set_enabled true;
  let loaded = Wl.setup t in
  let ws = List.map (fun (l : Wl.loaded) -> l.w) loaded in
  Obs.Trace.set_enabled false;
  let first, _ = Wl.study t ws ~seed in
  Obs.Trace.set_enabled true;
  (* The real study, traced. *)
  let full0, undo0 = Vm.Memory.restore_stats () in
  let groups0, batched0 = Core.Batch.stats () in
  let busy0 = metric_sum "onebit_engine_worker_busy_seconds"
  and idle0 = metric_sum "onebit_engine_worker_idle_seconds"
  and tasks0 = metric_sum "onebit_engine_tasks_total" in
  let stamps = ref [] in
  let store = if t.study_store then Some (open_store "traced") else None in
  let calib = Calib.time () in
  let t0 = now () in
  let (traced, executed), traced_s =
    timed (fun () -> Wl.study ?store ~log:(fun _ -> stamps := now () :: !stamps) t ws ~seed)
  in
  Option.iter Store.close store;
  let full1, undo1 = Vm.Memory.restore_stats () in
  let groups1, batched1 = Core.Batch.stats () in
  let busy = metric_sum "onebit_engine_worker_busy_seconds" -. busy0
  and idle = metric_sum "onebit_engine_worker_idle_seconds" -. idle0
  and tasks = metric_sum "onebit_engine_tasks_total" -. tasks0 in
  let d = drill t ws ~seed in
  let sample = stages t ws ~seed ~k:25 in
  let events = Obs.Trace.events () in
  Obs.Trace.set_enabled false;
  let self, total = self_times events in
  let round_s =
    match List.rev !stamps with
    | [] -> d.d_round_s
    | l -> List.rev (fst (List.fold_left (fun (acc, prev) s -> ((s -. prev) :: acc, s)) ([], t0) l))
  in
  let points, image = checkpoint_shape ws in
  let sumf f = List.fold_left (fun a l -> a +. f l) 0.0 loaded in
  let f x = float_of_int x in
  let cells = List.length first in
  let ms x = x *. 1e3 and us x = x *. 1e6 in
  let metrics =
    [
      ("workload.make_ms", ms (sumf (fun l -> l.make_s)), "ms");
      ("vm.golden_minstr_per_s", golden_rate ws, "Minstr/s");
      ("checkpoint.record_ms", ms (sumf (fun l -> l.record_s)), "ms");
      ("checkpoint.points", f points, "count");
      ("checkpoint.image_kb", f image /. 1024.0, "KB");
    ]
    @ sample
    @ [
        ("memory.restores_full", f (full1 - full0), "count");
        ("memory.resets_undo", f (undo1 - undo0), "count");
        ("memory.full_restores_per_exp", f (full1 - full0) /. f (max 1 executed), "ratio");
        ("batch.groups", f (groups1 - groups0), "count");
        ( "batch.mean_group_size",
          f (batched1 - batched0) /. f (max 1 (groups1 - groups0)),
          "count" );
        ("campaign.shard_ms.p50", ms (pct 0.5 d.d_shard_s), "ms");
        ("campaign.shard_ms.p99", ms (pct 0.99 d.d_shard_s), "ms");
        ("campaign.merge_ms", ms d.d_merge_s, "ms");
        ("engine.busy_s", busy, "s");
        ("engine.idle_s", idle, "s");
        ("engine.tasks", tasks, "count");
        ("adaptive.rounds", f d.d_rounds, "count");
        ("adaptive.round_ms.p50", ms (pct 0.5 round_s), "ms");
        ("adaptive.round_ms.max", ms (List.fold_left Float.max 0.0 round_s), "ms");
        ("adaptive.exps_executed", f d.d_executed, "count");
        ("adaptive.saved_frac", f d.d_saved /. f (t.n * cells), "fraction");
        ("store.appends", f (List.length d.d_append_s), "count");
        ("store.append_us.p50", us (pct 0.5 d.d_append_s), "us");
        ("store.append_us.p99", us (pct 0.99 d.d_append_s), "us");
        ("store.bytes", f d.d_bytes, "B");
        ("store.open_ms", ms d.d_open_s, "ms");
        ("store.lookup_us", us d.d_lookup_s /. f (max 1 d.d_lookups), "us");
        ("study.traced_s", traced_s, "s");
        ("host.calib_s", calib, "s");
        ("gc.peak_heap_mb", heap_mb (), "MB");
        ("trace.uncovered_frac", self "drill" /. total "drill", "fraction");
      ]
    @ List.map (fun l -> ("self." ^ l ^ "_ms", ms (self l), "ms")) layers
    @ outcome_mix traced
  in
  let refs = refs_for t ~size in
  let oracle, _ = Check.oracle ~cap:t.n ws first in
  let expected = Check.expected ~refs ~oracle first in
  let passes = [ oracle; first; traced; d.d_results; d.d_resumed ] in
  let failed = List.concat_map (Check.failures expected) passes in
  (* The drill-down replays the study's schedule, so the study must have
     executed exactly the experiments it did. *)
  let failed = if executed <> d.d_executed then "drill schedule differs" :: failed else failed in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "metrics",
              J.Obj (List.map (fun (k, v, u) -> (k, J.Arr [ J.Float v; J.Str u ])) metrics) );
            ("cells", J.Int cells);
            ("checked", J.Int (cells * List.length passes));
            ("failed", J.Int (List.length failed));
            ("failed_keys", J.Arr (List.map (fun k -> J.Str k) (List.sort_uniq compare failed)));
            ("reference", J.Str (reference_kind refs));
            ("digest", J.Str (Check.digest first));
            ("manifest", manifest t ws ~size);
          ]))
