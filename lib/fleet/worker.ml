(* Fleet worker: lease / compute / complete loop over one coordinator
   socket.

   Each granted shard goes through [Engine.Shards.run], the one shard
   executor: it answers the shard from the local store when given one,
   runs it otherwise, appends it, and counts it in the engine's
   [onebit_engine_*] counters.  Every experiment runs on Prng.split_at
   of the cell's base seed, so the result is identical no matter which
   worker computes it — the property the whole lease/reassign design
   rests on.

   All socket traffic goes through [rpc], a mutex-guarded write+read
   transaction, so the heartbeat thread can interleave with the main
   loop on the same connection without tearing the request/reply
   pairing. *)

type conn = { ic : in_channel; oc : out_channel; rpc_lock : Mutex.t }

let rpc conn msg =
  Mutex.lock conn.rpc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.rpc_lock)
    (fun () ->
      Proto.write conn.oc msg;
      match Proto.read conn.ic with
      | Ok reply -> reply
      | Error `Eof -> failwith "fleet worker: coordinator closed connection"
      | Error (`Malformed e) -> failwith ("fleet worker: " ^ e))

let with_heartbeat conn ~id ~task ~interval f =
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        let rec loop () =
          (* Sleep in short slices so a finished shard stops the
             heartbeat promptly instead of after a full interval. *)
          let slept = ref 0. in
          while (not (Atomic.get stop)) && !slept < interval do
            Thread.delay 0.05;
            slept := !slept +. 0.05
          done;
          if not (Atomic.get stop) then begin
            (match rpc conn (Proto.Heartbeat { worker = id; task }) with
            | Proto.Ack _ -> ()
            | _ -> ());
            loop ()
          end
        in
        try loop () with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    f

let connect_sock addr =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect sock addr
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  sock

let run ?id ?store ~connect ~load () =
  (match Sys.os_type with
  | "Unix" -> ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  | _ -> ());
  let id =
    match id with Some id -> id | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
  in
  let sock = connect_sock connect in
  let conn =
    {
      ic = Unix.in_channel_of_descr sock;
      oc = Unix.out_channel_of_descr sock;
      rpc_lock = Mutex.create ();
    }
  in
  let workloads : (string, Core.Workload.t) Hashtbl.t = Hashtbl.create 4 in
  (* Cached per program; the digest check runs on every grant, so a
     worker whose sources differ from the coordinator's fails on its
     first grant whether or not its store holds the shard. *)
  let workload_for (cell : Proto.cell) =
    let w =
      match Hashtbl.find_opt workloads cell.c_program with
      | Some w -> w
      | None ->
          let w = load cell.c_program in
          Hashtbl.replace workloads cell.c_program w;
          w
    in
    if w.Core.Workload.digest <> cell.c_digest then
      failwith
        (Printf.sprintf
           "fleet worker: program %s digest mismatch (coordinator %s, \
            worker %s) — sources differ"
           cell.c_program cell.c_digest w.Core.Workload.digest);
    w
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ttl, cells =
    match rpc conn (Proto.Hello { worker = id; pid = Unix.getpid () }) with
    | Proto.Welcome { proto; ttl; cells } ->
        if proto <> Proto.version then
          failwith
            (Printf.sprintf "fleet worker: protocol mismatch (%d vs %d)" proto
               Proto.version);
        (ttl, cells)
    | Proto.Error e -> failwith ("fleet worker: " ^ e)
    | _ -> failwith "fleet worker: expected welcome"
  in
  let hb_interval = max 0.05 (ttl /. 3.) in
  let completed = ref 0 in
  let rec loop () =
    match rpc conn (Proto.Lease { worker = id }) with
    | Proto.Done -> ()
    | Proto.Wait { backoff } ->
        (* The coordinator's backoff is the earliest a lease expiry can
           free a task, but a completion can finish the grid sooner —
           cap the sleep so an idle worker notices Done promptly. *)
        Thread.delay (max 0.05 (min backoff 0.5));
        loop ()
    | Proto.Grant { task; ttl = _ } ->
        let cell = cells.(task.Proto.t_cell) in
        let shard =
          with_heartbeat conn ~id ~task:task.Proto.t_id ~interval:hb_interval
            (fun () ->
              let job =
                {
                  Engine.Shards.workload = workload_for cell;
                  spec = cell.c_spec;
                  n = cell.c_n;
                  seed = cell.c_seed;
                  lo = task.Proto.t_lo;
                  hi = task.Proto.t_hi;
                }
              in
              (fst (Engine.Shards.run ?store [| job |])).(0))
        in
        (match
           rpc conn (Proto.Complete { worker = id; task = task.Proto.t_id; shard })
         with
        | Proto.Ack { dup } -> if not dup then incr completed
        | Proto.Error e -> failwith ("fleet worker: " ^ e)
        | _ -> failwith "fleet worker: expected ack");
        loop ()
    | Proto.Error e -> failwith ("fleet worker: " ^ e)
    | _ -> failwith "fleet worker: expected grant/wait/done"
  in
  loop ();
  !completed
