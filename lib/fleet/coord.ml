(* Fleet coordinator: grid ownership, shard leasing, crash-tolerant
   merge.

   The state machine is time-explicit (every transition takes ~now) and
   transport-agnostic; the socket server at the bottom of this file is a
   thin wrapper that feeds it decoded Proto messages and reports
   connection drops.  All state is guarded by one mutex, so connection
   handler threads and the test suite drive it the same way. *)

type task_status =
  | Todo
  | Leased of { worker : string; mutable deadline : float }
  | Completed

type slot = {
  task : Proto.task;
  mutable status : task_status;
  mutable shard : Core.Campaign.shard option;
}

type wstate = {
  w_id : string;
  mutable w_completed : int;
  mutable w_last_seen : float;
  mutable w_conn : int option;
}

type t = {
  cells : Proto.cell array;
  lease_ttl : float;
  store : Store.t option;
  mutable slots : slot array;
      (* fixed-N: the full grid tiling, added at create as one round.
         Adaptive: grows by one round's grants at each barrier. *)
  adaptive : Engine.Adaptive.Control.t option;
  workers : (string, wstate) Hashtbl.t;
  lock : Mutex.t;
  mutable n_completed : int;
  mutable n_reassigned : int;
}

let m_granted = Obs.Metrics.counter "onebit_fleet_leases_granted_total"
let m_reassigned = Obs.Metrics.counter "onebit_fleet_leases_reassigned_total"
let m_completed = Obs.Metrics.counter "onebit_fleet_shards_completed_total"
let m_duplicates = Obs.Metrics.counter "onebit_fleet_duplicate_completes_total"
let m_heartbeats = Obs.Metrics.counter "onebit_fleet_heartbeats_total"
let m_workers = Obs.Metrics.gauge "onebit_fleet_workers_connected"

(* Per-worker completion counters: the Prometheus endpoint aggregates
   them into the fleet dashboard. *)
let worker_counter id =
  Obs.Metrics.counter ~labels:[ ("worker", id) ]
    "onebit_fleet_worker_shards_completed_total"

let store_key (cell : Proto.cell) ~lo ~hi =
  Store.key ~program:cell.c_program ~digest:cell.c_digest ~spec:cell.c_spec
    ~n:cell.c_n ~seed:cell.c_seed ~lo ~hi

(* Merged observations of a cell's completed shards; at a round barrier
   every granted shard is completed, so this is the granted prefix. *)
let obs_locked t ci =
  let trials = ref 0 and sdc = ref 0 in
  Array.iter
    (fun s ->
      if s.task.Proto.t_cell = ci then
        match s.shard with
        | Some (sh : Core.Campaign.shard) ->
            trials := !trials + (sh.hi - sh.lo);
            sdc := !sdc + sh.s_sdc
        | None -> ())
    t.slots;
  (!trials, !sdc)

let all_completed_locked t =
  Array.for_all (fun s -> s.status = Completed) t.slots

(* Append one slot per granted range, prefilled from the store where
   it already holds the shard: a restarted coordinator (or one sharing a
   store with an engine run) re-leases only what never completed.  A
   fixed grid is one round of every shard; an adaptive grid adds one
   round per barrier. *)
let add_slots_locked t grants =
  let next = ref (Array.length t.slots) in
  let fresh = ref [] in
  List.iter
    (fun (ci, ranges) ->
      List.iter
        (fun (lo, hi) ->
          let task =
            { Proto.t_id = !next; t_cell = ci; t_lo = lo; t_hi = hi }
          in
          incr next;
          let shard =
            Option.bind t.store (fun st ->
                Store.lookup st (store_key t.cells.(ci) ~lo ~hi))
          in
          let status =
            match shard with
            | Some _ ->
                t.n_completed <- t.n_completed + 1;
                Completed
            | None -> Todo
          in
          fresh := { task; status; shard } :: !fresh)
        ranges)
    grants;
  t.slots <- Array.append t.slots (Array.of_list (List.rev !fresh))

(* Adaptive round barrier: when every granted slot has completed, step
   the controller on the merged prefix observations and add the next
   round's grants, so a restarted coordinator replays the deterministic
   round schedule.  Loops because a fully prefilled round is itself a
   completed barrier. *)
let advance_locked t =
  match t.adaptive with
  | None -> ()
  | Some ctl ->
      let continue_ = ref true in
      while
        !continue_ && all_completed_locked t
        && not (Engine.Adaptive.Control.finished ctl)
      do
        match Engine.Adaptive.Control.step ctl ~obs:(obs_locked t) with
        | [] -> continue_ := false
        | grants -> add_slots_locked t grants
      done

let create ?(ttl = 30.) ?shard_size ?store ?ci_target ~cells () =
  if cells = [] then invalid_arg "Coord.create: empty grid";
  if ttl <= 0. then invalid_arg "Coord.create: ttl must be positive";
  let shard_size = Core.Config.resolve_shard_size shard_size in
  let cells = Array.of_list cells in
  Array.iter
    (fun (cell : Proto.cell) ->
      if cell.c_n <= 0 then invalid_arg "Coord.create: n must be positive")
    cells;
  let adaptive =
    match ci_target with
    | None -> None
    | Some target ->
        Some
          (Engine.Adaptive.Control.create ~target ~shard_size
             (Array.map (fun (c : Proto.cell) -> c.c_n) cells))
  in
  let t =
    {
      cells;
      lease_ttl = ttl;
      store;
      slots = [||];
      adaptive;
      workers = Hashtbl.create 8;
      lock = Mutex.create ();
      n_completed = 0;
      n_reassigned = 0;
    }
  in
  (match adaptive with
  | None ->
      add_slots_locked t
        (List.init (Array.length cells) (fun ci ->
             (ci, Engine.shards_of ~n:cells.(ci).c_n ~shard_size)))
  | Some _ -> advance_locked t);
  t

let ttl t = t.lease_ttl
let total_tasks t = Array.length t.slots

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let finished_locked t =
  t.n_completed = Array.length t.slots
  && (match t.adaptive with
     | None -> true
     | Some ctl -> Engine.Adaptive.Control.finished ctl)

let finished t = locked t (fun () -> finished_locked t)

let touch t ~now ~conn worker =
  match Hashtbl.find_opt t.workers worker with
  | Some w ->
      w.w_last_seen <- now;
      if w.w_conn <> Some conn then w.w_conn <- Some conn;
      w
  | None ->
      let w =
        { w_id = worker; w_completed = 0; w_last_seen = now; w_conn = Some conn }
      in
      Hashtbl.replace t.workers worker w;
      Obs.Metrics.set m_workers
        (float_of_int
           (Hashtbl.fold
              (fun _ w acc -> if w.w_conn <> None then acc + 1 else acc)
              t.workers 0));
      w

(* Grant search: lowest-id Todo task first; failing that, the
   lowest-id expired lease (deadline at-or-before now), counting the
   handover as a reassignment. *)
let find_grant t ~now =
  let todo = ref None and expired = ref None in
  Array.iter
    (fun s ->
      match s.status with
      | Todo -> if !todo = None then todo := Some s
      | Leased l -> if l.deadline <= now && !expired = None then expired := Some s
      | Completed -> ())
    t.slots;
  match (!todo, !expired) with
  | Some s, _ -> Some (s, false)
  | None, Some s -> Some (s, true)
  | None, None -> None

let min_remaining t ~now =
  Array.fold_left
    (fun acc s ->
      match s.status with
      | Leased l -> min acc (l.deadline -. now)
      | Todo | Completed -> acc)
    t.lease_ttl t.slots

let complete_slot t ~(worker : wstate option) slot shard =
  slot.status <- Completed;
  slot.shard <- Some shard;
  t.n_completed <- t.n_completed + 1;
  Obs.Metrics.incr m_completed;
  (match worker with
  | Some w ->
      w.w_completed <- w.w_completed + 1;
      Obs.Metrics.incr (worker_counter w.w_id)
  | None -> ());
  match t.store with
  | Some st ->
      let cell = t.cells.(slot.task.Proto.t_cell) in
      Store.add st
        (store_key cell ~lo:slot.task.Proto.t_lo ~hi:slot.task.Proto.t_hi)
        shard
  | None -> ()

let state_locked t ~now =
  let workers =
    Hashtbl.fold (fun _ w acc -> w :: acc) t.workers []
    |> List.sort (fun a b -> compare a.w_id b.w_id)
    |> List.map (fun w ->
           let inflight =
             Array.fold_left
               (fun acc s ->
                 match s.status with
                 | Leased l when l.worker = w.w_id -> acc + 1
                 | _ -> acc)
               0 t.slots
           in
           {
             Proto.wi_id = w.w_id;
             wi_completed = w.w_completed;
             wi_inflight = inflight;
             wi_heartbeat_age = max 0. (now -. w.w_last_seen);
             wi_connected = w.w_conn <> None;
           })
  in
  let leases =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           match s.status with
           | Leased l ->
               Some
                 {
                   Proto.li_task = s.task.Proto.t_id;
                   li_worker = l.worker;
                   li_remaining = l.deadline -. now;
                 }
           | Todo | Completed -> None)
  in
  let rounds, open_ =
    match t.adaptive with
    | None -> (0, 0)
    | Some ctl ->
        let open_ = ref 0 in
        for i = 0 to Engine.Adaptive.Control.n_cells ctl - 1 do
          if not (Engine.Adaptive.Control.closed ctl i) then incr open_
        done;
        (Engine.Adaptive.Control.rounds ctl, !open_)
  in
  {
    Proto.st_cells = Array.length t.cells;
    st_tasks = Array.length t.slots;
    st_completed = t.n_completed;
    st_reassigned = t.n_reassigned;
    st_finished = finished_locked t;
    st_workers = workers;
    st_leases = leases;
    st_adaptive = t.adaptive <> None;
    st_rounds = rounds;
    st_open = open_;
  }

let state t ~now = locked t (fun () -> state_locked t ~now)

let handle t ~now ~conn (msg : Proto.msg) : Proto.msg =
  locked t @@ fun () ->
  match msg with
  | Proto.Hello { worker; pid = _ } ->
      ignore (touch t ~now ~conn worker : wstate);
      Proto.Welcome { proto = Proto.version; ttl = t.lease_ttl; cells = t.cells }
  | Proto.Lease { worker } -> (
      ignore (touch t ~now ~conn worker : wstate);
      if finished_locked t then Proto.Done
      else
        match find_grant t ~now with
        | Some (slot, reassigned) ->
            if reassigned then begin
              t.n_reassigned <- t.n_reassigned + 1;
              Obs.Metrics.incr m_reassigned
            end;
            slot.status <- Leased { worker; deadline = now +. t.lease_ttl };
            Obs.Metrics.incr m_granted;
            Proto.Grant { task = slot.task; ttl = t.lease_ttl }
        | None ->
            Proto.Wait
              { backoff = min t.lease_ttl (max 0.05 (min_remaining t ~now)) })
  | Proto.Heartbeat { worker; task } -> (
      ignore (touch t ~now ~conn worker : wstate);
      Obs.Metrics.incr m_heartbeats;
      if task < 0 || task >= Array.length t.slots then
        Proto.Error (Printf.sprintf "heartbeat: unknown task %d" task)
      else
        let slot = t.slots.(task) in
        match slot.status with
        | Leased l when l.worker = worker ->
            l.deadline <- now +. t.lease_ttl;
            Proto.Ack { dup = false }
        | Leased _ | Todo | Completed ->
            (* The lease expired and moved on (or the shard is already
               done).  The worker may keep computing: its completion is
               an exact no-op if it loses the race. *)
            Proto.Ack { dup = true })
  | Proto.Complete { worker; task; shard } ->
      let w = touch t ~now ~conn worker in
      if task < 0 || task >= Array.length t.slots then
        Proto.Error (Printf.sprintf "complete: unknown task %d" task)
      else
        let slot = t.slots.(task) in
        if
          shard.Core.Campaign.lo <> slot.task.Proto.t_lo
          || shard.Core.Campaign.hi <> slot.task.Proto.t_hi
        then
          Proto.Error
            (Printf.sprintf "complete: shard [%d,%d) does not match task %d"
               shard.Core.Campaign.lo shard.Core.Campaign.hi task)
        else if
          not (Core.Campaign.consistent (Core.Campaign.profile_of_shard shard))
        then
          (* Counts that do not add up are refused like a range
             mismatch: the task stays leasable, so an honest completion
             can still finish it. *)
          Proto.Error
            (Printf.sprintf "complete: shard [%d,%d) counts do not add up"
               shard.Core.Campaign.lo shard.Core.Campaign.hi)
        else if slot.status = Completed then begin
          Obs.Metrics.incr m_duplicates;
          Proto.Ack { dup = true }
        end
        else begin
          complete_slot t ~worker:(Some w) slot shard;
          (* An adaptive round barrier may have been reached: grant the
             next round before replying, so the next Lease sees it. *)
          advance_locked t;
          Proto.Ack { dup = false }
        end
  | Proto.Drain -> Proto.State (state_locked t ~now)
  | Proto.Welcome _ | Proto.Grant _ | Proto.Wait _ | Proto.Done
  | Proto.Ack _ | Proto.State _ | Proto.Error _ ->
      Proto.Error "unexpected message"

let disconnect t ~now ~conn =
  locked t @@ fun () ->
  Hashtbl.iter
    (fun _ w ->
      if w.w_conn = Some conn then begin
        w.w_conn <- None;
        (* Orphan this worker's leases: immediately reassignable, so a
           SIGKILLed worker costs its in-flight shards and nothing else —
           no TTL wait. *)
        Array.iter
          (fun s ->
            match s.status with
            | Leased l when l.worker = w.w_id -> l.deadline <- now
            | _ -> ())
          t.slots
      end)
    t.workers;
  Obs.Metrics.set m_workers
    (float_of_int
       (Hashtbl.fold
          (fun _ w acc -> if w.w_conn <> None then acc + 1 else acc)
          t.workers 0))

let results t =
  locked t @@ fun () ->
  if not (finished_locked t) then
    invalid_arg "Coord.results: grid not finished";
  Array.to_list
    (Array.mapi
       (fun ci (cell : Proto.cell) ->
         let shards =
           Array.to_list t.slots
           |> List.filter_map (fun s ->
                  if s.task.Proto.t_cell = ci then s.shard else None)
         in
         (* Adaptive cells merge at their stopping point — a shard
            boundary of the cap tiling, so the result is byte-identical
            to a fixed-N campaign of that N. *)
         let n =
           match t.adaptive with
           | None -> cell.c_n
           | Some ctl -> Engine.Adaptive.Control.closed_at ctl ci
         in
         let result =
           Core.Campaign.merge ~workload_name:cell.c_program cell.c_spec ~n
             ~seed:cell.c_seed shards
         in
         (cell, result))
       t.cells)

let adaptive_summary t =
  locked t @@ fun () ->
  match t.adaptive with
  | None -> None
  | Some ctl ->
      Some
        (Array.to_list
           (Array.mapi
              (fun ci (cell : Proto.cell) ->
                ( cell,
                  Engine.Adaptive.Control.closed_at ctl ci,
                  Engine.Adaptive.Control.met ctl ci ))
              t.cells))

(* ---- socket server ---- *)

type server = {
  coord : t;
  lsock : Unix.file_descr;
  addr : Unix.sockaddr;
  mutable conn_threads : Thread.t list;
  threads_lock : Mutex.t;
}

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  | _ -> ()

let listen coord addr =
  ignore_sigpipe ();
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain = Unix.domain_of_sockaddr addr in
  let lsock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match domain with
  | Unix.PF_INET | Unix.PF_INET6 ->
      Unix.setsockopt lsock Unix.SO_REUSEADDR true
  | _ -> ());
  Unix.bind lsock addr;
  Unix.listen lsock 64;
  {
    coord;
    lsock;
    addr = Unix.getsockname lsock;
    conn_threads = [];
    threads_lock = Mutex.create ();
  }

let bound_addr srv = srv.addr

let http_get_prefix = "GET "

(* One thread per connection: strictly alternating request/reply lines.
   An HTTP GET is answered with the Prometheus dump and closed — the
   coordinator socket doubles as the fleet metrics endpoint. *)
let handle_conn srv conn_id fd =
  let coord = srv.coord in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let n = String.length http_get_prefix in
        if String.length line >= n && String.sub line 0 n = http_get_prefix
        then begin
          output_string oc (Obs.http_response ());
          flush oc
        end
        else begin
          (match Proto.of_line line with
          | Ok msg ->
              Proto.write oc
                (handle coord ~now:(Unix.gettimeofday ()) ~conn:conn_id msg)
          | Error e -> Proto.write oc (Proto.Error e));
          loop ()
        end
  in
  (try loop () with _ -> ());
  disconnect coord ~now:(Unix.gettimeofday ()) ~conn:conn_id;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve srv =
  ignore_sigpipe ();
  let conn_counter = ref 0 in
  let rec accept_loop () =
    if finished srv.coord then ()
    else
      match Unix.select [ srv.lsock ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
          let fd, _peer = Unix.accept srv.lsock in
          incr conn_counter;
          let conn_id = !conn_counter in
          let th = Thread.create (fun () -> handle_conn srv conn_id fd) () in
          Mutex.lock srv.threads_lock;
          srv.conn_threads <- th :: srv.conn_threads;
          Mutex.unlock srv.threads_lock;
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (try Unix.close srv.lsock with Unix.Unix_error _ -> ());
  (match srv.addr with
  | Unix.ADDR_UNIX path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  (* Workers drain after their final Done; join so their completions are
     all processed before the caller merges. *)
  Mutex.lock srv.threads_lock;
  let threads = srv.conn_threads in
  srv.conn_threads <- [];
  Mutex.unlock srv.threads_lock;
  List.iter Thread.join threads
