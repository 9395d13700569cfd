(* Live progress/metrics channel for engine runs.

   Workers report finished shards; any thread may take a consistent
   snapshot.  A small reporter thread renders snapshots to stderr so that
   stdout stays byte-identical to a silent run. *)

type counters = {
  mutable experiments : int;  (* executed this process *)
  mutable from_store : int;  (* experiments answered by the store *)
  mutable benign : int;
  mutable detected : int;
  mutable hang : int;
  mutable no_output : int;
  mutable sdc : int;
}

type t = {
  lock : Mutex.t;
  started : float;
  cum : counters;
  mutable campaign_label : string;
  mutable campaign_total : int;  (* experiments in the current campaign *)
  mutable campaign_done : int;
  mutable campaigns_started : int;
  mutable workers : (int * float) array;  (* per-domain (shards, busy s) *)
}

let create () =
  {
    lock = Mutex.create ();
    started = Unix.gettimeofday ();
    cum =
      {
        experiments = 0;
        from_store = 0;
        benign = 0;
        detected = 0;
        hang = 0;
        no_output = 0;
        sdc = 0;
      };
    campaign_label = "";
    campaign_total = 0;
    campaign_done = 0;
    campaigns_started = 0;
    workers = [||];
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let begin_campaign t ~label ~total =
  locked t (fun () ->
      t.campaign_label <- label;
      t.campaign_total <- total;
      t.campaign_done <- 0;
      t.campaigns_started <- t.campaigns_started + 1)

let ensure_worker t w =
  let len = Array.length t.workers in
  if w >= len then begin
    let workers = Array.make (max (w + 1) (2 * max 1 len)) (0, 0.0) in
    Array.blit t.workers 0 workers 0 len;
    t.workers <- workers
  end

let record_shard t ?worker ?(busy = 0.0) ~from_store
    (s : Core.Campaign.shard) =
  locked t (fun () ->
      let size = s.hi - s.lo in
      t.campaign_done <- t.campaign_done + size;
      if from_store then t.cum.from_store <- t.cum.from_store + size
      else t.cum.experiments <- t.cum.experiments + size;
      t.cum.benign <- t.cum.benign + s.s_benign;
      t.cum.detected <- t.cum.detected + s.s_detected;
      t.cum.hang <- t.cum.hang + s.s_hang;
      t.cum.no_output <- t.cum.no_output + s.s_no_output;
      t.cum.sdc <- t.cum.sdc + s.s_sdc;
      match worker with
      | Some w ->
          ensure_worker t w;
          let shards, acc = t.workers.(w) in
          t.workers.(w) <- (shards + 1, acc +. busy)
      | None -> ())

type snapshot = {
  elapsed : float;
  rate : float;  (** executed experiments per second (store hits excluded) *)
  eta : float;  (** seconds until the current campaign completes; 0 if idle *)
  campaign_label : string;
  campaign_done : int;
  campaign_total : int;
  campaigns_started : int;
  experiments : int;
  from_store : int;
  benign : int;
  detected : int;
  hang : int;
  no_output : int;
  sdc : int;
  per_worker : (int * float) array;
}

let snapshot t =
  locked t (fun () ->
      let elapsed = Unix.gettimeofday () -. t.started in
      let rate =
        if elapsed > 0.0 then float_of_int t.cum.experiments /. elapsed
        else 0.0
      in
      let eta =
        let left = t.campaign_total - t.campaign_done in
        if left > 0 && rate > 0.0 then float_of_int left /. rate else 0.0
      in
      {
        elapsed;
        rate;
        eta;
        campaign_label = t.campaign_label;
        campaign_done = t.campaign_done;
        campaign_total = t.campaign_total;
        campaigns_started = t.campaigns_started;
        experiments = t.cum.experiments;
        from_store = t.cum.from_store;
        benign = t.cum.benign;
        detected = t.cum.detected;
        hang = t.cum.hang;
        no_output = t.cum.no_output;
        sdc = t.cum.sdc;
        per_worker = Array.copy t.workers;
      })

(* Live VM-instruction throughput from the metrics registry, when the
   observability layer is collecting; empty otherwise so a plain
   progress line is unchanged. *)
let obs_suffix elapsed =
  if (not (Obs.Metrics.enabled ())) || elapsed <= 0.0 then ""
  else
    match Obs.Metrics.find "onebit_vm_instructions_total" with
    | Some (Obs.Metrics.Counter n) when n > 0 ->
        Printf.sprintf " | %.1fM vm-instr/s"
          (float_of_int n /. elapsed /. 1e6)
    | _ -> ""

let render s =
  let util =
    if Array.length s.per_worker = 0 || s.elapsed <= 0.0 then ""
    else
      let parts =
        Array.to_list s.per_worker
        |> List.mapi (fun i (_, busy) ->
               Printf.sprintf "d%d:%.0f%%" i
                 (100.0 *. busy /. s.elapsed))
      in
      " [" ^ String.concat " " parts ^ "]"
  in
  Printf.sprintf
    "%s %d/%d | %.0f exp/s | eta %.0fs | cum %d run + %d stored | b:%d d:%d \
     h:%d n:%d s:%d%s%s"
    s.campaign_label s.campaign_done s.campaign_total s.rate s.eta
    s.experiments s.from_store s.benign s.detected s.hang s.no_output s.sdc
    util (obs_suffix s.elapsed)

let with_reporter ?(interval = 0.5) t f =
  if not (Core.Config.of_env ()).Core.Config.progress then f ()
  else begin
    let stop = Atomic.make false in
    let reporter =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            Printf.eprintf "\r\027[K%s%!" (render (snapshot t));
            Thread.delay interval
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join reporter;
        Printf.eprintf "\r\027[K%s\n%!" (render (snapshot t)))
      f
  end
