type dispatch =
  keep_experiments:bool ->
  Workload.t -> Spec.t -> n:int -> seed:int64 ->
  Campaign.result * Obs.Snapshot.t

type t = {
  n : int;
  seed : int64;
  cache : (string, Campaign.result) Hashtbl.t;
  dispatch : dispatch;
  mutable snap : Obs.Snapshot.t;
}

let sequential : dispatch =
 fun ~keep_experiments workload spec ~n ~seed ->
  (Campaign.run ~keep_experiments workload spec ~n ~seed, Obs.Snapshot.zero)

let create ?(n = 200) ?(seed = 20170626L) ?(dispatch = sequential) () =
  {
    n;
    seed;
    cache = Hashtbl.create 512;
    dispatch;
    snap = Obs.Snapshot.zero;
  }

let n t = t.n

let derived_seed t workload_name spec =
  (* Stable, collision-resistant enough for seeding: hash the identifying
     string into the base seed. *)
  let s = workload_name ^ "|" ^ Spec.label spec in
  let h = ref t.seed in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let run_key kept workload_name spec n =
  Printf.sprintf "%s|%s|%d|%b" workload_name (Spec.label spec) n kept

let get t ~kept workload spec =
  let key = run_key kept workload.Workload.name spec t.n in
  match Hashtbl.find_opt t.cache key with
  | Some r ->
      let hit = { Obs.Snapshot.zero with mem_hits = 1 } in
      t.snap <- Obs.Snapshot.add t.snap hit;
      Obs.Snapshot.count hit;
      r
  | None ->
      let miss = { Obs.Snapshot.zero with dispatched = 1 } in
      Obs.Snapshot.count miss;
      let seed = derived_seed t workload.Workload.name spec in
      let r, d =
        let dispatch () =
          t.dispatch ~keep_experiments:kept workload spec ~n:t.n ~seed
        in
        if Obs.Trace.enabled () then
          Obs.Trace.with_span ("dispatch " ^ key) dispatch
        else dispatch ()
      in
      t.snap <- Obs.Snapshot.add t.snap (Obs.Snapshot.add miss d);
      Hashtbl.replace t.cache key r;
      r

let campaign t workload spec = get t ~kept:false workload spec
let campaign_kept t workload spec = get t ~kept:true workload spec
let cache_size t = Hashtbl.length t.cache
let snapshot t = t.snap
