(* Golden-prefix checkpoints for the compiled VM.

   Every experiment is fault-free up to its first flip, whose candidate
   ordinal is drawn at injector creation.  The workload's one golden run
   (Core.Workload.make) records interval checkpoints of the complete VM
   state (call stack with register files and last-write tables, dirty
   memory pages, output length, dyn/candidate counters); an experiment
   then restores the nearest checkpoint at-or-before its first target
   and executes only the suffix.

   Checkpoints are captured at the top of the interpreter loop — before
   the dyn increment and before the instruction's candidate blocks — and
   annotated with both the read- and the write-candidate ordinal, so one
   set serves both injection techniques.  A capture waits for the first
   jump target after its threshold, so Code's rejoin probe finds every
   point from the jumps alone.  Because the injector draws no
   randomness and fires no events during the golden prefix, resuming
   from a checkpoint is observationally identical to full execution:
   same injections, outputs, counters.  The differential suites
   (test/suite_checkpoint.ml, test/suite_oracle.ml) enforce this
   bit-for-bit.

   A set also carries the reference for Code's early exits: the golden
   run's end state and, per memory page, its last read.  And it carries
   the golden run's candidate totals, the one count of them: a faulty
   run stops counting once its injector is done. *)

let interval = 1024

type frame_snap = {
  fs_fidx : int;
  fs_pc : int;
      (* innermost frame: pc to resume at; outer frames: pc of the
         in-progress Ucall *)
  fs_call_dyn : int;
      (* outer frames: the call instruction's dynamic index, needed to
         replay its write-candidate post-block exactly *)
  fs_ints : int array; (* the real registers, not the constant slots *)
  fs_flts : float array; (* [||] for a function without a float register *)
  fs_lw : int array;
}

type point = {
  ck_dyn : int;
  ck_rc : int; (* read-candidate ordinals consumed before this point *)
  ck_wc : int; (* write-candidate ordinals consumed *)
  ck_out : string; (* output emitted so far *)
  ck_stack : frame_snap array; (* outermost first *)
  ck_pages : (int * bytes) array;
      (* dirty pages at capture; an unchanged page shares the previous
         point's copy *)
}

type set = {
  interval : int;
  points : point array;
  last_read : int array;
      (* per memory page: the last dyn at which the golden run loads from
         it, -1 if never *)
  golden : Exec.result; (* the golden run's end state *)
  read_cands : int; (* the golden run's candidate totals *)
  write_cands : int;
}

type recorder = {
  mutable interval : int;
  mutable next_rc : int; (* capture when rc or wc reaches these *)
  mutable next_wc : int;
  mutable rev_points : point list;
  mutable n_points : int;
  mutable last_read : int array;
  mutable golden : Exec.result option; (* set when the run completes *)
  mutable read_cands : int;
  mutable write_cands : int;
}

(* Never triggers: both thresholds stay at max_int.  The run loop keeps a
   recorder unconditionally so the hot path is one bool test. *)
let null_recorder =
  {
    interval = max_int;
    next_rc = max_int;
    next_wc = max_int;
    rev_points = [];
    n_points = 0;
    last_read = [||];
    golden = None;
    read_cands = 0;
    write_cands = 0;
  }

(* Cap on points per program: when reached, every other point is dropped
   and the interval doubles, bounding memory at ~2x the cap for any
   program length while keeping the skip granularity proportional. *)
let max_points = 1024

(* A plain counter maintained unconditionally (one bump per captured
   point, not per instruction) so tests observe checkpoint behaviour
   without enabling metrics; the Obs probes mirror it when collection is
   on.  Restores are counted once, by [Memory.restore_pages]. *)
let points_total = Atomic.make 0
let m_points = Obs.Metrics.counter "onebit_vm_checkpoints_total"
let m_hits = Obs.Metrics.counter "onebit_vm_checkpoint_hits_total"

let m_pages_saved =
  Obs.Metrics.counter "onebit_vm_checkpoint_pages_saved_total"

let m_pages_restored =
  Obs.Metrics.counter "onebit_vm_checkpoint_pages_restored_total"

let m_distance =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.count_buckets
    "onebit_vm_checkpoint_restore_distance"

let stats () = (Atomic.get points_total, fst (Memory.restore_stats ()))

let recorder ~interval =
  if interval <= 0 then invalid_arg "Checkpoint.recorder: interval <= 0";
  {
    interval;
    next_rc = interval;
    next_wc = interval;
    rev_points = [];
    n_points = 0;
    last_read = [||];
    golden = None;
    read_cands = 0;
    write_cands = 0;
  }

let add r p =
  r.rev_points <- p :: r.rev_points;
  r.n_points <- r.n_points + 1;
  if r.n_points >= max_points then begin
    let kept =
      List.filteri (fun i _ -> i land 1 = 0) (List.rev r.rev_points)
    in
    r.rev_points <- List.rev kept;
    r.n_points <- List.length kept;
    r.interval <- 2 * r.interval
  end;
  r.next_rc <- ((p.ck_rc / r.interval) + 1) * r.interval;
  r.next_wc <- ((p.ck_wc / r.interval) + 1) * r.interval;
  Atomic.incr points_total;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_points;
    Obs.Metrics.add m_pages_saved (Array.length p.ck_pages)
  end

let complete r ~last_read ~read_cands ~write_cands golden =
  r.last_read <- last_read;
  r.read_cands <- read_cands;
  r.write_cands <- write_cands;
  r.golden <- Some golden

let finish r =
  match r.golden with
  | None -> invalid_arg "Checkpoint.finish: the recording run has not completed"
  | Some golden ->
      {
        interval = r.interval;
        points = Array.of_list (List.rev r.rev_points);
        last_read = r.last_read;
        golden;
        read_cands = r.read_cands;
        write_cands = r.write_cands;
      }

let note_restore (p : point) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_hits;
    Obs.Metrics.add m_pages_restored (Array.length p.ck_pages);
    Obs.Metrics.observe m_distance (float_of_int p.ck_dyn)
  end

(* Greatest point whose consumed ordinal count on the watched axis is
   <= target: the first candidate at ordinal [target] has then not yet
   been executed, so the suffix reaches it exactly as a full run would. *)
let select set ~axis ~target =
  let ord (p : point) =
    match axis with `Read -> p.ck_rc | `Write -> p.ck_wc | `Dyn -> p.ck_dyn
  in
  let pts = set.points in
  let n = Array.length pts in
  if n = 0 || ord pts.(0) > target then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if ord pts.(mid) <= target then lo := mid else hi := mid - 1
    done;
    Some pts.(!lo)
  end
