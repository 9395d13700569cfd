(* Fixed pool of worker domains claiming tasks from one shared cursor.

   The task array is complete before any domain starts and tasks never
   spawn tasks, so a single [Atomic.fetch_and_add] cursor hands out every
   index exactly once; a worker that reads past the end is done for good
   and [Domain.join] is the completion barrier.  The calling domain
   participates as worker 0, so [jobs = 1] spawns no domains at all.

   Observability: the task count plus per-worker busy/idle wall time go
   to the default metrics registry.  Timing is only taken when
   collection is enabled, so a disabled run pays one flag check per
   pool invocation. *)

let m_tasks = Obs.Metrics.counter "onebit_engine_tasks_total"

let worker_gauge name w =
  Obs.Metrics.gauge ~labels:[ ("worker", string_of_int w) ] name

(* Run every task of one worker through [f], accounting busy time; the
   idle remainder of the worker's lifetime is recorded on exit. *)
let instrumented me loop =
  if not (Obs.Metrics.enabled ()) then loop (fun f -> f ())
  else begin
    let busy = ref 0.0 in
    let started = Unix.gettimeofday () in
    let timed f =
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () -> busy := !busy +. (Unix.gettimeofday () -. t0))
        f
    in
    Fun.protect
      ~finally:(fun () ->
        let total = Unix.gettimeofday () -. started in
        Obs.Metrics.gadd (worker_gauge "onebit_engine_worker_busy_seconds" me)
          !busy;
        Obs.Metrics.gadd (worker_gauge "onebit_engine_worker_idle_seconds" me)
          (Float.max 0.0 (total -. !busy)))
      (fun () -> loop timed)
  end

let run ~jobs (tasks : (worker:int -> unit) array) =
  let ntasks = Array.length tasks in
  if ntasks > 0 then begin
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker me () =
      try
        instrumented me (fun timed ->
            let rec loop () =
              let i = Atomic.fetch_and_add next 1 in
              if i < ntasks then begin
                Obs.Metrics.incr m_tasks;
                timed (fun () -> tasks.(i) ~worker:me);
                loop ()
              end
            in
            loop ())
      with exn ->
        (* Record the first failure and stop this worker; the others
           keep claiming, and the error re-raises after the joins. *)
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (exn, bt)))
    in
    let domains =
      Array.init
        (max 1 (min jobs ntasks) - 1)
        (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join domains;
    Option.iter
      (fun (exn, bt) -> Printexc.raise_with_backtrace exn bt)
      (Atomic.get failure)
  end
