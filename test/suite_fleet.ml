(* Tests for the distributed campaign fleet: the wire codec, the
   coordinator's lease state machine (expiry, reassignment, duplicate
   completion, worker death at every interesting point), the store's
   writer leases, and the load-bearing property — a fleet's merged
   result is identical to [Campaign.run] for any fleet shape and kill
   history. *)

module Proto = Fleet.Proto
module Coord = Fleet.Coord

let workload =
  lazy
    (let e = Option.get (Bench_suite.Registry.find "spmv") in
     Core.Workload.make ~name:e.name ~expected_output:(e.reference ())
       (e.build ()))

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "onebit-fleet-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o755;
    d

let cell_of ?(n = 75) w spec =
  {
    Proto.c_program = w.Core.Workload.name;
    c_digest = w.Core.Workload.digest;
    c_spec = spec;
    c_n = n;
    c_seed = 20170626L;
  }

let spec = Core.Spec.multi Read ~max_mbf:3 ~win:(Fixed 5)

let compute w (task : Proto.task) =
  Core.Campaign.run_shard w spec ~seed:20170626L ~lo:task.t_lo ~hi:task.t_hi

let result_eq = Alcotest.testable (Fmt.of_to_string (fun _ -> "<result>"))
    Core.Campaign.equal_result

(* ---- codec round-trip (qcheck, every message type) ---- *)

(* Names exercise the JSON string escaper. *)
let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" cs)
      (list_size (int_range 1 8)
         (oneofl [ "a"; "z"; "_"; "-"; "."; "/"; "\""; "\\"; "m"; "7" ])))

let gen_tech = QCheck.Gen.oneofl [ Core.Technique.Read; Core.Technique.Write ]

let gen_win =
  QCheck.Gen.(
    oneof
      [
        map (fun w -> Core.Win.Fixed w) (int_bound 100);
        map2 (fun lo len -> Core.Win.Rnd (lo, lo + len)) (int_bound 50)
          (int_bound 50);
      ])

let gen_spec =
  QCheck.Gen.(
    oneof
      [
        map Core.Spec.single gen_tech;
        map3
          (fun t m win -> Core.Spec.multi t ~max_mbf:(m + 2) ~win)
          gen_tech (int_bound 8) gen_win;
      ])

let gen_seed = QCheck.Gen.(map Int64.of_int int)

let gen_cell =
  QCheck.Gen.(
    map
      (fun (p, d, spec, n, seed) ->
        { Proto.c_program = p; c_digest = d; c_spec = spec; c_n = n; c_seed = seed })
      (tup5 gen_name gen_name gen_spec (int_range 1 100_000) gen_seed))

let gen_task =
  QCheck.Gen.(
    map
      (fun (id, cell, lo, len) ->
        { Proto.t_id = id; t_cell = cell; t_lo = lo; t_hi = lo + len + 1 })
      (tup4 (int_bound 10_000) (int_bound 50) (int_bound 100_000) (int_bound 99)))

let gen_pos_float = QCheck.Gen.(map abs_float (float_bound_exclusive 10_000.))

(* Real shards with non-trivial trap/activation payloads, computed once;
   the Complete codec ships them in their store representation. *)
let shard_pool =
  lazy
    (let w = Lazy.force workload in
     List.map
       (fun (lo, hi) ->
         Core.Campaign.run_shard w spec ~seed:20170626L ~lo ~hi)
       [ (0, 25); (25, 50); (50, 60) ])

let gen_shard = QCheck.Gen.(map (fun i -> List.nth (Lazy.force shard_pool) i) (int_bound 2))

let gen_worker_info =
  QCheck.Gen.(
    map
      (fun (id, completed, inflight, hb, conn) ->
        {
          Proto.wi_id = id;
          wi_completed = completed;
          wi_inflight = inflight;
          wi_heartbeat_age = hb;
          wi_connected = conn;
        })
      (tup5 gen_name (int_bound 1000) (int_bound 16) gen_pos_float bool))

let gen_lease_info =
  QCheck.Gen.(
    map
      (fun (task, w, remaining) ->
        { Proto.li_task = task; li_worker = w; li_remaining = remaining })
      (tup3 (int_bound 10_000) gen_name gen_pos_float))

let gen_state =
  QCheck.Gen.(
    map
      (fun ( cells,
             tasks,
             completed,
             reassigned,
             (finished, workers, leases, (adaptive, rounds, open_)) ) ->
        {
          Proto.st_cells = cells;
          st_tasks = tasks;
          st_completed = completed;
          st_reassigned = reassigned;
          st_finished = finished;
          st_workers = workers;
          st_leases = leases;
          st_adaptive = adaptive;
          st_rounds = rounds;
          st_open = open_;
        })
      (tup5 (int_bound 50) (int_bound 10_000) (int_bound 10_000) (int_bound 100)
         (tup4 bool
            (list_size (int_bound 4) gen_worker_info)
            (list_size (int_bound 4) gen_lease_info)
            (tup3 bool (int_bound 100) (int_bound 50)))))

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        map2 (fun w pid -> Proto.Hello { worker = w; pid }) gen_name (int_bound 100_000);
        map2
          (fun ttl cells -> Proto.Welcome { proto = Proto.version; ttl; cells })
          gen_pos_float
          (map Array.of_list (list_size (int_bound 3) gen_cell));
        map (fun w -> Proto.Lease { worker = w }) gen_name;
        map2 (fun task ttl -> Proto.Grant { task; ttl }) gen_task gen_pos_float;
        map (fun b -> Proto.Wait { backoff = b }) gen_pos_float;
        return Proto.Done;
        map2 (fun w task -> Proto.Heartbeat { worker = w; task }) gen_name
          (int_bound 10_000);
        map3
          (fun w task shard -> Proto.Complete { worker = w; task; shard })
          gen_name (int_bound 10_000) gen_shard;
        map (fun dup -> Proto.Ack { dup }) bool;
        return Proto.Drain;
        map (fun s -> Proto.State s) gen_state;
        map (fun e -> Proto.Error e) gen_name;
      ])

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"fleet codec round-trips every message type"
    ~count:300 (QCheck.make gen_msg) (fun msg ->
      match Proto.of_line (Proto.to_line msg) with
      | Ok msg' -> Proto.equal msg msg'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_codec_rejects_garbage () =
  let bad l = match Proto.of_line l with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "not json" true (bad "{nope");
  Alcotest.(check bool) "no tag" true (bad {|{"w":"a"}|});
  Alcotest.(check bool) "unknown tag" true (bad {|{"t":"frobnicate"}|});
  Alcotest.(check bool) "missing field" true (bad {|{"t":"hello","w":"a"}|})

(* A shard whose counts do not add up: 1,000 extra benign runs. *)
let forge (s : Core.Campaign.shard) = { s with s_benign = s.s_benign + 1000 }

let test_codec_rejects_inconsistent_counts () =
  let shard = forge (List.hd (Lazy.force shard_pool)) in
  match
    Proto.of_line
      (Proto.to_line (Proto.Complete { worker = "a"; task = 0; shard }))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a Complete whose counts do not add up decoded"

(* ---- coordinator state machine ---- *)

(* 75 experiments at shard size 25: tasks 0,1,2. *)
let make_coord ?store ?(ttl = 10.) () =
  let w = Lazy.force workload in
  (w, Coord.create ~ttl ?store ~shard_size:25 ~cells:[ cell_of w spec ] ())

let lease c ~now ~conn worker =
  match Coord.handle c ~now ~conn (Proto.Lease { worker }) with
  | Proto.Grant { task; _ } -> `Grant task
  | Proto.Wait { backoff } -> `Wait backoff
  | Proto.Done -> `Done
  | m -> Alcotest.failf "unexpected lease reply %s" (Proto.to_line m)

let complete c ~now ~conn worker (task : Proto.task) shard =
  match
    Coord.handle c ~now ~conn (Proto.Complete { worker; task = task.t_id; shard })
  with
  | Proto.Ack { dup } -> dup
  | m -> Alcotest.failf "unexpected complete reply %s" (Proto.to_line m)

let reference w ~n = Core.Campaign.run w spec ~n ~seed:20170626L

let test_lease_expiry_reassignment () =
  let w, c = make_coord () in
  let t0 =
    match lease c ~now:0. ~conn:1 "a" with
    | `Grant t -> t
    | _ -> Alcotest.fail "no grant"
  in
  Alcotest.(check int) "first task" 0 t0.Proto.t_id;
  (* b works through tasks 1 and 2 promptly; with only a's live lease
     outstanding, b must wait, not steal. *)
  let t1 = match lease c ~now:1. ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  ignore (complete c ~now:1.5 ~conn:2 "b" t1 (compute w t1) : bool);
  let t2 = match lease c ~now:2. ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  ignore (complete c ~now:2.5 ~conn:2 "b" t2 (compute w t2) : bool);
  (match lease c ~now:3. ~conn:2 "b" with
  | `Wait backoff -> Alcotest.(check bool) "positive backoff" true (backoff > 0.)
  | _ -> Alcotest.fail "expected wait");
  (* A heartbeat extends a's deadline: at t=12 (past the original t=10
     expiry, within the extended one) the lease still holds. *)
  (match Coord.handle c ~now:8. ~conn:1 (Proto.Heartbeat { worker = "a"; task = 0 }) with
  | Proto.Ack { dup = false } -> ()
  | m -> Alcotest.failf "unexpected heartbeat reply %s" (Proto.to_line m));
  (match lease c ~now:12. ~conn:2 "b" with
  | `Wait _ -> ()
  | _ -> Alcotest.fail "extended lease must not be reassigned");
  (* Past the extended deadline it is reassigned. *)
  let t0' = match lease c ~now:18.5 ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "expected reassignment" in
  Alcotest.(check int) "expired lease reassigned" 0 t0'.Proto.t_id;
  Alcotest.(check int) "reassignment counted" 1
    (Coord.state c ~now:19.).Proto.st_reassigned;
  Alcotest.(check bool) "fresh" false
    (complete c ~now:20. ~conn:2 "b" t0' (compute w t0'));
  Alcotest.(check bool) "finished" true (Coord.finished c);
  (* a's late completion of the task it lost is an exact no-op. *)
  Alcotest.(check bool) "stale completion is dup" true
    (complete c ~now:21. ~conn:1 "a" t0 (compute w t0));
  Alcotest.check result_eq "fleet result = Campaign.run" (reference w ~n:75)
    (snd (List.hd (Coord.results c)))

let test_duplicate_complete_idempotent () =
  let w, c = make_coord () in
  let rec drain acc now =
    match lease c ~now ~conn:1 "a" with
    | `Grant t ->
        ignore (complete c ~now ~conn:1 "a" t (compute w t) : bool);
        drain (t :: acc) (now +. 0.1)
    | `Done -> acc
    | `Wait _ -> Alcotest.fail "unexpected wait"
  in
  let tasks = drain [] 0. in
  Alcotest.(check int) "three tasks" 3 (List.length tasks);
  (* Re-complete every task: all dups, counters unchanged, result same. *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "dup ack" true
        (complete c ~now:5. ~conn:1 "a" t (compute w t)))
    tasks;
  let s = Coord.state c ~now:6. in
  Alcotest.(check int) "completed stays 3" 3 s.Proto.st_completed;
  Alcotest.check result_eq "result unchanged" (reference w ~n:75)
    (snd (List.hd (Coord.results c)))

(* Worker death at the three interesting points: before any lease,
   mid-shard, and after the coordinator processed Complete but before
   the worker saw the ack.  Reassignment is immediate on disconnect —
   no TTL wait. *)
let test_kill_points () =
  let w, c = make_coord () in
  (* a: killed before leasing anything — costs nothing. *)
  ignore (Coord.handle c ~now:0. ~conn:1 (Proto.Hello { worker = "a"; pid = 1 }));
  Coord.disconnect c ~now:0.5 ~conn:1;
  (* b: leases the whole grid, then is killed mid-shard.  Disconnect
     orphans every lease immediately — no TTL wait (ttl here is 10). *)
  let tb0 = match lease c ~now:1. ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  let tb1 = match lease c ~now:1.1 ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  let tb2 = match lease c ~now:1.2 ~conn:2 "b" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  Alcotest.(check (list int)) "b holds the grid" [ 0; 1; 2 ]
    [ tb0.Proto.t_id; tb1.Proto.t_id; tb2.Proto.t_id ];
  Coord.disconnect c ~now:1.5 ~conn:2;
  (* c: picks up the orphaned tasks in order, completes two, then dies
     after the coordinator processed the second Complete but before the
     ack reached it. *)
  let tc0 = match lease c ~now:2. ~conn:3 "c" with
    | `Grant t -> t | _ -> Alcotest.fail "orphaned lease not reassigned" in
  Alcotest.(check int) "task 0 reassigned to c" 0 tc0.Proto.t_id;
  ignore (complete c ~now:2.5 ~conn:3 "c" tc0 (compute w tc0) : bool);
  let tc1 = match lease c ~now:3. ~conn:3 "c" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  Alcotest.(check int) "task 1 reassigned to c" 1 tc1.Proto.t_id;
  ignore (complete c ~now:3.5 ~conn:3 "c" tc1 (compute w tc1) : bool);
  Coord.disconnect c ~now:3.6 ~conn:3;
  (* d mops up the one task still outstanding. *)
  let td = match lease c ~now:4. ~conn:4 "d" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  Alcotest.(check int) "only task 2 left" 2 td.Proto.t_id;
  ignore (complete c ~now:4.5 ~conn:4 "d" td (compute w td) : bool);
  (match lease c ~now:5. ~conn:4 "d" with
  | `Done -> ()
  | _ -> Alcotest.fail "expected done");
  (* b's ghost resends task 0 from beyond the grave: exact no-op. *)
  Alcotest.(check bool) "ghost completion is dup" true
    (complete c ~now:5.5 ~conn:5 "b" tb0 (compute w tb0));
  let s = Coord.state c ~now:6. in
  Alcotest.(check int) "all three reassigned" 3 s.Proto.st_reassigned;
  Alcotest.(check bool) "finished" true s.Proto.st_finished;
  Alcotest.check result_eq "kill history does not change the result"
    (reference w ~n:75)
    (snd (List.hd (Coord.results c)))

(* ---- fleet shapes x random programs (the determinism property) ---- *)

(* Simulate k workers in lease/complete lockstep against the pure state
   machine: all workers lease (so k leases are outstanding and grants
   interleave), then all complete, until the grid drains. *)
let run_sim c w k =
  let now = ref 0. in
  let alive = ref true in
  while !alive do
    let grants =
      List.init k (fun i ->
          now := !now +. 0.01;
          match lease c ~now:!now ~conn:(i + 1) (Printf.sprintf "w%d" i) with
          | `Grant t -> Some (i, t)
          | `Wait _ | `Done -> None)
      |> List.filter_map Fun.id
    in
    if grants = [] then alive := false
    else
      List.iter
        (fun (i, t) ->
          now := !now +. 0.01;
          ignore
            (complete c ~now:!now ~conn:(i + 1) (Printf.sprintf "w%d" i) t
               (Core.Campaign.run_shard w spec ~seed:20170626L ~lo:t.Proto.t_lo
                  ~hi:t.Proto.t_hi)
              : bool))
        grants
  done

(* The coordinator refuses a completion whose counts do not add up, as
   it refuses a range mismatch; the task stays leasable, and its honest
   completion still yields the exact grid result. *)
let test_inconsistent_complete_refused () =
  let w, c = make_coord () in
  let t0 = match lease c ~now:0. ~conn:1 "a" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  (match
     Coord.handle c ~now:0.5 ~conn:1
       (Proto.Complete
          { worker = "a"; task = t0.t_id; shard = forge (compute w t0) })
   with
  | Proto.Error _ -> ()
  | m -> Alcotest.failf "forged completion answered %s" (Proto.to_line m));
  Alcotest.(check int) "nothing completed" 0
    (Coord.state c ~now:1.).Proto.st_completed;
  Alcotest.(check bool) "honest completion is fresh" false
    (complete c ~now:1. ~conn:1 "a" t0 (compute w t0));
  run_sim c w 2;
  Alcotest.(check bool) "finished" true (Coord.finished c);
  Alcotest.check result_eq "fleet result = Campaign.run" (reference w ~n:75)
    (snd (List.hd (Coord.results c)))

let prop_fleet_shape_independence =
  QCheck.Test.make
    ~name:"merged fleet result = Campaign.run (random programs x 1/2/4 workers)"
    ~count:8
    (QCheck.make Suite_differential.case_gen)
    (fun (ops, seeds) ->
      let seeds = if seeds = [] then [ 1L ] else seeds in
      let ops = Suite_differential.sanitize ops seeds in
      let w =
        Core.Workload.make ~name:"fleet-rand"
          (Suite_differential.build_program ops seeds)
      in
      let n = 40 in
      let expected = Core.Campaign.run w spec ~n ~seed:20170626L in
      List.for_all
        (fun k ->
          let c =
            Coord.create ~ttl:1000. ~shard_size:7
              ~cells:
                [
                  {
                    Proto.c_program = w.Core.Workload.name;
                    c_digest = w.Core.Workload.digest;
                    c_spec = spec;
                    c_n = n;
                    c_seed = 20170626L;
                  };
                ]
              ()
          in
          run_sim c w k;
          Coord.finished c
          && Core.Campaign.equal_result expected (snd (List.hd (Coord.results c))))
        [ 1; 2; 4 ])

(* ---- sockets: a real coordinator server and real workers ---- *)

let test_socket_fleet () =
  let w = Lazy.force workload in
  let c = Coord.create ~ttl:5. ~shard_size:25 ~cells:[ cell_of w spec ] () in
  let sock_path = Filename.concat (temp_dir ()) "coord.sock" in
  let srv = Coord.listen c (Unix.ADDR_UNIX sock_path) in
  let addr = Coord.bound_addr srv in
  let server = Thread.create (fun () -> Coord.serve srv) () in
  let load name =
    Alcotest.(check string) "worker asked for the right program"
      w.Core.Workload.name name;
    w
  in
  let workers =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            Fleet.Worker.run ~id:(Printf.sprintf "sock-w%d" i) ~connect:addr
              ~load ())
          ())
  in
  List.iter Thread.join workers;
  Thread.join server;
  Alcotest.(check bool) "finished" true (Coord.finished c);
  Alcotest.check result_eq "socket fleet result = Campaign.run"
    (reference w ~n:75)
    (snd (List.hd (Coord.results c)))

(* A worker whose store already holds every shard answers each grant
   from it through the engine's executor: the result equals
   [Campaign.run] and no shard runs.  A worker whose program differs
   from the coordinator's fails on its first grant all the same. *)
let test_worker_local_store () =
  let w = Lazy.force workload in
  let st = Store.open_dir (temp_dir ()) in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  ignore
    (Engine.run_campaign ~shard_size:25 ~store:st w spec ~n:75 ~seed:20170626L
      : Core.Campaign.result);
  let m0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled m0) @@ fun () ->
  let before = Obs.Snapshot.read () in
  let c = Coord.create ~ttl:5. ~shard_size:25 ~cells:[ cell_of w spec ] () in
  let srv =
    Coord.listen c
      (Unix.ADDR_UNIX (Filename.concat (temp_dir ()) "coord.sock"))
  in
  let server = Thread.create (fun () -> Coord.serve srv) () in
  let other =
    let e = Option.get (Bench_suite.Registry.find "crc32") in
    Core.Workload.make ~name:w.name (e.build ())
  in
  (match
     Fleet.Worker.run ~id:"other-w" ~store:st ~connect:(Coord.bound_addr srv)
       ~load:(fun _ -> other) ()
   with
  | _ -> Alcotest.fail "a worker with other sources served a grant"
  | exception Failure _ -> ());
  let completed =
    Fleet.Worker.run ~id:"store-w" ~store:st ~connect:(Coord.bound_addr srv)
      ~load:(fun _ -> w) ()
  in
  Thread.join server;
  let after = Obs.Snapshot.read () in
  Alcotest.(check int) "one worker completed every task" 3 completed;
  Alcotest.check result_eq "fleet result = Campaign.run" (reference w ~n:75)
    (snd (List.hd (Coord.results c)));
  Alcotest.(check int) "no shard executed" 0
    (after.Obs.Snapshot.shards_executed - before.Obs.Snapshot.shards_executed);
  Alcotest.(check int) "every shard from the store" 3
    (after.Obs.Snapshot.shards_from_store
    - before.Obs.Snapshot.shards_from_store)

let test_parse_addr () =
  (match Fleet.parse_addr "unix:/tmp/x.sock" with
  | Ok (Unix.ADDR_UNIX "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix: prefix");
  (match Fleet.parse_addr "./rel.sock" with
  | Ok (Unix.ADDR_UNIX "./rel.sock") -> ()
  | _ -> Alcotest.fail "bare path");
  (match Fleet.parse_addr "127.0.0.1:8080" with
  | Ok (Unix.ADDR_INET (_, 8080)) -> ()
  | _ -> Alcotest.fail "host:port");
  (match Fleet.parse_addr "tcp:127.0.0.1:77777" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port must be rejected");
  Alcotest.(check string) "round trip" "unix:/tmp/x.sock"
    (Fleet.addr_to_string (Unix.ADDR_UNIX "/tmp/x.sock"))

(* ---- coordinator store: durable completions and restart resume ---- *)

let test_coord_store_resume () =
  let w = Lazy.force workload in
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  let c1 = Coord.create ~ttl:10. ~store:st ~shard_size:25
      ~cells:[ cell_of w spec ] () in
  (* Complete only task 0, then "crash" the coordinator. *)
  let t0 = match lease c1 ~now:0. ~conn:1 "a" with
    | `Grant t -> t | _ -> Alcotest.fail "no grant" in
  ignore (complete c1 ~now:1. ~conn:1 "a" t0 (compute w t0) : bool);
  (* A restarted coordinator resumes with task 0 already done... *)
  let c2 = Coord.create ~ttl:10. ~store:st ~shard_size:25
      ~cells:[ cell_of w spec ] () in
  Alcotest.(check int) "one shard prefilled" 1
    (Coord.state c2 ~now:0.).Proto.st_completed;
  run_sim c2 w 2;
  Alcotest.check result_eq "resumed fleet result = Campaign.run"
    (reference w ~n:75)
    (snd (List.hd (Coord.results c2)));
  (* ... and a fleet store is interchangeable with an engine-run store:
     the single-process engine reuses every fleet shard. *)
  let _, stats =
    Engine.run_campaign_stats ~jobs:1 ~shard_size:25 ~store:st w spec ~n:75
      ~seed:20170626L
  in
  Alcotest.(check int) "engine reuses all fleet shards" 3
    stats.Obs.Snapshot.shards_from_store

(* ---- one shard-size rule ---- *)

(* A non-positive shard size means the configured size for every
   driver, so the engine and the coordinator tile a cell identically and
   key their store records alike. *)
let test_shard_size_rule () =
  let w = Lazy.force workload in
  let c = Coord.create ~shard_size:0 ~cells:[ cell_of ~n:60 w spec ] () in
  let _, stats =
    Engine.run_campaign_stats ~shard_size:0 w spec ~n:60 ~seed:20170626L
  in
  Alcotest.(check int) "engine shards = coordinator tasks"
    (Coord.total_tasks c) stats.Obs.Snapshot.shards_executed

(* ---- store writer leases and gc refusal ---- *)

let test_store_leases_and_gc () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  let w = Lazy.force workload in
  let add st lo hi =
    Store.add st
      (Store.key ~program:w.name ~digest:w.digest ~spec ~n:75
         ~seed:20170626L ~lo ~hi)
      (Core.Campaign.run_shard w spec ~seed:20170626L ~lo ~hi)
  in
  let gc st = ignore (Store.gc st : Store.gc_report) in
  Alcotest.(check (list int)) "no lease before the first append" []
    (Store.live_leases st);
  add st 0 25;
  (* A handle that has appended holds a lease; its own never blocks its
     gc. *)
  Alcotest.(check (list int)) "appending handle listed" [ Unix.getpid () ]
    (Store.live_leases st);
  gc st;
  (* Another appending handle makes gc refuse, even in this process,
     until it is closed. *)
  let other = Store.open_dir dir in
  add other 25 50;
  Alcotest.check_raises "gc refuses under another handle's lease"
    (Store.Busy [ Unix.getpid () ])
    (fun () -> gc st);
  Store.close other;
  let r = Store.gc st in
  Alcotest.(check int) "closing released the lease" 2 r.Store.live_records;
  (* A live foreign pid's marker makes gc refuse.  Pid 1 is always alive
     (and not ours), so plant its marker by hand. *)
  let plant pid =
    let name = Printf.sprintf "lease-%d-0" pid in
    Out_channel.with_open_bin (Filename.concat dir name) ignore;
    name
  in
  let foreign = plant 1 in
  Alcotest.check_raises "gc refuses under a live foreign lease"
    (Store.Busy [ 1 ])
    (fun () -> gc st);
  Sys.remove (Filename.concat dir foreign);
  (* A dead pid's marker is stale: swept, and gc proceeds. *)
  let stale = plant 999_999_999 in
  Alcotest.(check (list int)) "stale marker ignored" [ Unix.getpid () ]
    (Store.live_leases st);
  Alcotest.(check bool) "stale marker swept" false
    (Sys.file_exists (Filename.concat dir stale));
  let r = Store.gc st in
  Alcotest.(check int) "records survived the compactions" 2 r.Store.live_records

let suites =
  [
    ( "fleet",
      [
        QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        Alcotest.test_case "codec rejects malformed input" `Quick
          test_codec_rejects_garbage;
        Alcotest.test_case "lease expiry and heartbeat extension" `Quick
          test_lease_expiry_reassignment;
        Alcotest.test_case "duplicate completion is idempotent" `Quick
          test_duplicate_complete_idempotent;
        Alcotest.test_case "worker death at every point" `Quick
          test_kill_points;
        QCheck_alcotest.to_alcotest prop_fleet_shape_independence;
        Alcotest.test_case "socket server end to end" `Quick test_socket_fleet;
        Alcotest.test_case "address parsing" `Quick test_parse_addr;
        Alcotest.test_case "coordinator store resume" `Quick
          test_coord_store_resume;
        Alcotest.test_case "shard_size 0 tiles like the coordinator" `Quick
          test_shard_size_rule;
        Alcotest.test_case "store writer leases gate gc" `Quick
          test_store_leases_and_gc;
        Alcotest.test_case "codec rejects counts that do not add up" `Quick
          test_codec_rejects_inconsistent_counts;
        Alcotest.test_case "inconsistent completion refused" `Quick
          test_inconsistent_complete_refused;
        Alcotest.test_case "worker answers grants from its store" `Quick
          test_worker_local_store;
      ] );
  ]
