(* Append-only, checksummed, segmented result store.

   Layout: a directory of `seg-NNNNNN.jsonl` files.  Each line is one
   record `{"c":"<md5>","k":KEY,"v":VALUE}` where the checksum is the md5
   of the canonical serialisation of `{"k":KEY,"v":VALUE}`.  Appends go to
   the highest-numbered segment and are flushed record-by-record, so a
   killed run loses at most the record being written — which the loader
   recognises as a truncated tail and drops; a store reopened over one
   appends to a fresh segment.  Compaction (gc) re-reads the segments on
   disk, writes their live records to a fresh segment under a temporary
   name, fsyncs it, and renames it into place before unlinking the
   segments it read; rename is the atomic commit point.  A handle that
   has appended holds a writer lease, a [lease-<pid>-<k>] marker file,
   until it is closed, and gc refuses while another handle's marker is
   live. *)

module Jsonx = Jsonx

type key = {
  program : string;
  digest : string;  (* md5 hex of the printed IR *)
  technique : string;
  max_mbf : int;
  win : string;
  domain : string;  (* fault domain; "reg" for stores written before
                       domains existed *)
  n : int;
  seed : int64;
  lo : int;
  hi : int;
}

let key ~program ~digest ~(spec : Core.Spec.t) ~n ~seed ~lo ~hi =
  {
    program;
    digest;
    technique = Core.Technique.to_string spec.technique;
    max_mbf = spec.max_mbf;
    win = Core.Win.to_string spec.win;
    domain = Core.Domain.to_string spec.domain;
    n;
    seed;
    lo;
    hi;
  }

(* The "dom" member is omitted for the register domain: the canonical
   key serialisation doubles as the index key, so emitting it would
   orphan every record written before fault domains existed.  Readers
   default a missing "dom" to "reg". *)
let key_json k =
  let open Jsonx in
  Obj
    ([
       ("p", Str k.program);
       ("d", Str k.digest);
       ("t", Str k.technique);
       ("m", Int k.max_mbf);
       ("w", Str k.win);
       ("n", Int k.n);
       ("s", Str (Int64.to_string k.seed));
       ("lo", Int k.lo);
       ("hi", Int k.hi);
     ]
    @ if String.equal k.domain "reg" then [] else [ ("dom", Str k.domain) ])

type pkey = {
  pk_program : string;
  pk_func : string;
  pk_fdigest : string;  (* identity digest of the function *)
  pk_env : string;  (* environment digest of the module *)
  pk_technique : string;
  pk_max_mbf : int;
  pk_win : string;
  pk_domain : string;
  pk_n : int;
  pk_seed : int64;
}

let profile_key ~program ~func ~fdigest ~env ~(spec : Core.Spec.t) ~n ~seed =
  {
    pk_program = program;
    pk_func = func;
    pk_fdigest = fdigest;
    pk_env = env;
    pk_technique = Core.Technique.to_string spec.technique;
    pk_max_mbf = spec.max_mbf;
    pk_win = Core.Win.to_string spec.win;
    pk_domain = Core.Domain.to_string spec.domain;
    pk_n = n;
    pk_seed = seed;
  }

(* The leading "r" discriminator keeps profile keys disjoint from shard
   keys; shard keys stay exactly as they always were, so stores written
   before profiles existed load unchanged. *)
let pkey_json k =
  let open Jsonx in
  Obj
    ([
       ("r", Str "prof");
       ("p", Str k.pk_program);
       ("f", Str k.pk_func);
       ("fd", Str k.pk_fdigest);
       ("e", Str k.pk_env);
       ("t", Str k.pk_technique);
       ("m", Int k.pk_max_mbf);
       ("w", Str k.pk_win);
       ("n", Int k.pk_n);
       ("s", Str (Int64.to_string k.pk_seed));
     ]
    @
    if String.equal k.pk_domain "reg" then []
    else [ ("dom", Str k.pk_domain) ])

let pkey_of_json j =
  let open Jsonx in
  let ( let* ) = Option.bind in
  let* p = Option.bind (mem "p" j) to_str in
  let* f = Option.bind (mem "f" j) to_str in
  let* fd = Option.bind (mem "fd" j) to_str in
  let* e = Option.bind (mem "e" j) to_str in
  let* t = Option.bind (mem "t" j) to_str in
  let* m = Option.bind (mem "m" j) to_int in
  let* w = Option.bind (mem "w" j) to_str in
  let* n = Option.bind (mem "n" j) to_int in
  let* s = Option.bind (mem "s" j) to_str in
  let* seed = Int64.of_string_opt s in
  let dom =
    match Option.bind (mem "dom" j) to_str with Some d -> d | None -> "reg"
  in
  Some
    {
      pk_program = p;
      pk_func = f;
      pk_fdigest = fd;
      pk_env = e;
      pk_technique = t;
      pk_max_mbf = m;
      pk_win = w;
      pk_domain = dom;
      pk_n = n;
      pk_seed = seed;
    }

let key_of_json j =
  let open Jsonx in
  let ( let* ) = Option.bind in
  let* p = Option.bind (mem "p" j) to_str in
  let* d = Option.bind (mem "d" j) to_str in
  let* t = Option.bind (mem "t" j) to_str in
  let* m = Option.bind (mem "m" j) to_int in
  let* w = Option.bind (mem "w" j) to_str in
  let* n = Option.bind (mem "n" j) to_int in
  let* s = Option.bind (mem "s" j) to_str in
  let* seed = Int64.of_string_opt s in
  let* lo = Option.bind (mem "lo" j) to_int in
  let* hi = Option.bind (mem "hi" j) to_int in
  let dom =
    match Option.bind (mem "dom" j) to_str with Some d -> d | None -> "reg"
  in
  Some
    { program = p; digest = d; technique = t; max_mbf = m; win = w;
      domain = dom; n; seed; lo; hi }

(* The one codec of outcome counts: shard records, profile records and
   the fleet's Complete message all carry these nine value fields, in
   this order.  Decoding refuses counts that do not add up
   ([Core.Campaign.consistent]), so a damaged or forged record is
   dropped at open and a forged completion never reaches a merge. *)
let counts_fields (p : Core.Campaign.profile) =
  let open Jsonx in
  [
    ("b", Int p.p_benign);
    ("det", Int p.p_detected);
    ("h", Int p.p_hang);
    ("no", Int p.p_no_output);
    ("sdc", Int p.p_sdc);
    ( "traps",
      Arr
        (List.map
           (fun (t, c) -> Arr [ Str (Vm.Trap.to_string t); Int c ])
           p.p_traps) );
    ("act", Arr (List.map (fun (k, c) -> Arr [ Int k; Int c ]) p.p_activation));
    ("ws", Float p.p_weighted_sdc);
    ("wt", Float p.p_weighted_total);
  ]

let counts_of_json ~exps j : Core.Campaign.profile option =
  let open Jsonx in
  let ( let* ) = Option.bind in
  let* b = Option.bind (mem "b" j) to_int in
  let* det = Option.bind (mem "det" j) to_int in
  let* h = Option.bind (mem "h" j) to_int in
  let* no = Option.bind (mem "no" j) to_int in
  let* sdc = Option.bind (mem "sdc" j) to_int in
  let* traps_j = Option.bind (mem "traps" j) to_list in
  let* act_j = Option.bind (mem "act" j) to_list in
  let* ws = Option.bind (mem "ws" j) to_float in
  let* wt = Option.bind (mem "wt" j) to_float in
  let* traps =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Arr [ Str name; Int c ] ->
            let* trap = Vm.Trap.of_string name in
            Some ((trap, c) :: acc)
        | _ -> None)
      (Some []) traps_j
  in
  let* act =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Arr [ Int k; Int c ] -> Some ((k, c) :: acc)
        | _ -> None)
      (Some []) act_j
  in
  let p =
    {
      Core.Campaign.p_exps = exps;
      p_benign = b;
      p_detected = det;
      p_hang = h;
      p_no_output = no;
      p_sdc = sdc;
      p_traps = List.rev traps;
      p_activation = List.rev act;
      p_weighted_sdc = ws;
      p_weighted_total = wt;
    }
  in
  if Core.Campaign.consistent p then Some p else None

let shard_json s = Jsonx.Obj (counts_fields (Core.Campaign.profile_of_shard s))

let shard_of_json ~lo ~hi j =
  Option.map
    (Core.Campaign.shard_of_profile ~lo ~hi ~experiments:[||])
    (counts_of_json ~exps:(hi - lo) j)

let profile_json (p : Core.Campaign.profile) =
  Jsonx.Obj (("e", Jsonx.Int p.p_exps) :: counts_fields p)

let profile_of_json j =
  Option.bind (Option.bind (Jsonx.mem "e" j) Jsonx.to_int) (fun exps ->
      counts_of_json ~exps j)

type record =
  | Shard of key * Core.Campaign.shard
  | Profile of pkey * Core.Campaign.profile

let record_key_json = function
  | Shard (k, _) -> key_json k
  | Profile (k, _) -> pkey_json k

let record_value_json = function
  | Shard (_, s) -> shard_json s
  | Profile (_, p) -> profile_json p

let record_line_of r =
  let payload =
    Jsonx.to_string
      (Obj [ ("k", record_key_json r); ("v", record_value_json r) ])
  in
  let sum = Digest.to_hex (Digest.string payload) in
  Printf.sprintf "{\"c\":\"%s\",%s" sum
    (String.sub payload 1 (String.length payload - 1))

(* Decode one line; distinguishes a well-formed record from damage. *)
let decode_line line : (record, [ `Damaged ]) result =
  match Jsonx.of_string line with
  | Error _ -> Error `Damaged
  | Ok j -> (
      let open Jsonx in
      match (mem "c" j, mem "k" j, mem "v" j) with
      | Some (Str sum), Some kj, Some vj -> (
          let payload = to_string (Obj [ ("k", kj); ("v", vj) ]) in
          if not (String.equal sum (Digest.to_hex (Digest.string payload)))
          then Error `Damaged
          else
            match mem "r" kj with
            | Some (Str "prof") -> (
                match (pkey_of_json kj, profile_of_json vj) with
                | Some k, Some p -> Ok (Profile (k, p))
                | _ -> Error `Damaged)
            | Some _ -> Error `Damaged
            | None -> (
                match key_of_json kj with
                | None -> Error `Damaged
                | Some k -> (
                    match shard_of_json ~lo:k.lo ~hi:k.hi vj with
                    | Some shard -> Ok (Shard (k, shard))
                    | None -> Error `Damaged)))
      | _ -> Error `Damaged)

type stats = {
  records : int;
  segments : int;
  bytes : int;
  truncated : int;  (** incomplete tail records dropped at open *)
  corrupt : int;  (** checksum/shape/count-rejected records dropped at open *)
}

type gc_report = {
  live_records : int;
  dropped_duplicates : int;
  segments_before : int;
  segments_after : int;
  bytes_before : int;
  bytes_after : int;
}

let m_appends = Obs.Metrics.counter "onebit_store_appends_total"
let m_rotations = Obs.Metrics.counter "onebit_store_rotations_total"
let m_lookup_hits = Obs.Metrics.counter "onebit_store_lookup_hits_total"
let m_lookup_misses = Obs.Metrics.counter "onebit_store_lookup_misses_total"
let m_truncated = Obs.Metrics.counter "onebit_store_truncated_records_total"
let m_corrupt = Obs.Metrics.counter "onebit_store_corrupt_records_total"
let m_fsync = Obs.Metrics.histogram "onebit_store_fsync_seconds"

exception Busy of int list

type t = {
  dir : string;
  segment_bytes : int;
  fsync : bool;
  mutable index : (string, record) Hashtbl.t;
  lock : Mutex.t;
  lock_fd : Unix.file_descr;  (* <dir>/.lock, advisory inter-process lock *)
  mutable active : int;
  mutable chan : out_channel;
  mutable active_bytes : int;
  mutable segment_list : int list;  (* ascending segment numbers *)
  mutable truncated : int;
  mutable corrupt : int;
  mutable lease : string option;  (* this handle's marker, from its first append *)
}

let segment_name i = Printf.sprintf "seg-%06d.jsonl" i
let segment_path t i = Filename.concat t.dir (segment_name i)

let parse_segment_name name =
  if
    String.length name = 16
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".jsonl"
  then int_of_string_opt (String.sub name 4 6)
  else None

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map parse_segment_name
  |> List.sort compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let canonical_key k = Jsonx.to_string (key_json k)
let canonical_pkey k = Jsonx.to_string (pkey_json k)

let canonical_record = function
  | Shard (k, _) -> canonical_key k
  | Profile (k, _) -> canonical_pkey k

(* Damage and shadowing seen while loading segments. *)
type scan = {
  mutable shadowed : int;  (* records shadowed by a later same-key record *)
  mutable truncated_lines : int;
  mutable corrupt_lines : int;
}

let new_scan () = { shadowed = 0; truncated_lines = 0; corrupt_lines = 0 }

(* Load one segment into [index]; true when it ends in an unterminated
   line. *)
let load_segment scan index path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length text in
  let ends_with_newline = len > 0 && text.[len - 1] = '\n' in
  let lines = String.split_on_char '\n' text in
  (* split_on_char leaves a trailing "" when the text ends with '\n'. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let total = List.length lines in
  List.iteri
    (fun i line ->
      if String.length line > 0 then
        match decode_line line with
        | Ok r ->
            let ck = canonical_record r in
            if Hashtbl.mem index ck then scan.shadowed <- scan.shadowed + 1;
            Hashtbl.replace index ck r
        | Error `Damaged ->
            (* An unterminated final line, of any segment, is the
               signature of a run killed mid-append; anything else is
               corruption. *)
            if i = total - 1 && not ends_with_newline then
              scan.truncated_lines <- scan.truncated_lines + 1
            else scan.corrupt_lines <- scan.corrupt_lines + 1)
    lines;
  len > 0 && not ends_with_newline

let file_size path = (Unix.stat path).Unix.st_size

let open_segment t i =
  t.chan <-
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (segment_path t i);
  t.active <- i;
  t.active_bytes <- file_size (segment_path t i)

let open_dir ?(segment_bytes = 8 * 1024 * 1024) ?(fsync = false) dir =
  mkdir_p dir;
  let lock_fd =
    Unix.openfile (Filename.concat dir ".lock")
      [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  let segments = list_segments dir in
  let index = Hashtbl.create 1024 in
  let scan = new_scan () in
  let unterminated =
    List.fold_left
      (fun _ s -> load_segment scan index (Filename.concat dir (segment_name s)))
      false segments
  in
  Obs.Metrics.add m_truncated scan.truncated_lines;
  Obs.Metrics.add m_corrupt scan.corrupt_lines;
  let newest = match List.rev segments with s :: _ -> s | [] -> 1 in
  (* A record appended after the newest segment's partial line would
     merge with it into one damaged line: append to a fresh segment
     instead, leaving every existing byte as it is. *)
  let active = if unterminated then newest + 1 else newest in
  let t =
    {
      dir;
      segment_bytes;
      fsync;
      index;
      lock = Mutex.create ();
      lock_fd;
      active;
      chan = stdout (* replaced below *);
      active_bytes = 0;
      segment_list =
        (if List.mem active segments then segments else segments @ [ active ]);
      truncated = scan.truncated_lines;
      corrupt = scan.corrupt_lines;
      lease = None;
    }
  in
  open_segment t active;
  t

let flush_chan t =
  flush t.chan;
  if t.fsync then
    if Obs.Metrics.enabled () then begin
      let t0 = Unix.gettimeofday () in
      Unix.fsync (Unix.descr_of_out_channel t.chan);
      Obs.Metrics.observe m_fsync (Unix.gettimeofday () -. t0)
    end
    else Unix.fsync (Unix.descr_of_out_channel t.chan)

(* Exclusion around segment mutation (appends and the gc rewrite).
   [t.lock] serialises one handle's callers; this extends it to every
   other handle on the directory, so two writers cannot interleave
   partial lines and an append cannot race a gc rename.  Across
   processes it is an fcntl-style lock ([Unix.lockf]) on a dedicated
   [.lock] file, so closing segment files never drops it.  fcntl locks
   belong to a process, not to a descriptor, so handles within one
   process also take [process_lock]. *)
let process_lock = Mutex.create ()

let with_file_lock t f =
  Mutex.protect process_lock @@ fun () ->
  ignore (Unix.lseek t.lock_fd 0 Unix.SEEK_SET);
  Unix.lockf t.lock_fd Unix.F_LOCK 0;
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.lseek t.lock_fd 0 Unix.SEEK_SET);
      try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

(* ---- writer leases ----

   A handle takes a lease at its first append and holds it until
   [close]: a [lease-<pid>-<k>] marker file in the store directory that
   [gc], run from any other handle of any process, refuses to compact
   over.  Markers of dead processes are stale and swept on inspection,
   so a SIGKILLed writer never wedges the store. *)

let leases_taken = Atomic.make 0

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) ->
      (* EPERM etc.: the process exists but is not ours. *)
      true

(* Live markers as (file name, pid); stale ones are removed. *)
let live_markers t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         match String.split_on_char '-' name with
         | [ "lease"; pid; _ ] -> (
             match int_of_string_opt pid with
             | Some pid when pid_alive pid -> Some (name, pid)
             | Some _ ->
                 (try Sys.remove (Filename.concat t.dir name)
                  with Sys_error _ -> ());
                 None
             | None -> None)
         | _ -> None)

let live_leases t = List.sort_uniq compare (List.map snd (live_markers t))

let newest_on_disk t =
  match List.rev (list_segments t.dir) with s :: _ -> s | [] -> 0

(* Append to segment [i] from now on. *)
let switch_segment_locked t i =
  flush_chan t;
  close_out t.chan;
  t.segment_list <- t.segment_list @ [ i ];
  open_segment t i

let add_record t r =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let ck = canonical_record r in
      if not (Hashtbl.mem t.index ck) then begin
        let first = Option.is_none t.lease in
        if first then begin
          let name =
            Printf.sprintf "lease-%d-%d" (Unix.getpid ())
              (Atomic.fetch_and_add leases_taken 1)
          in
          close_out (open_out_bin (Filename.concat t.dir name));
          t.lease <- Some name
        end;
        let line = record_line_of r in
        (* The file lock spans buffer-fill to flush so the appended line
           reaches the segment as one unit even when another handle
           shares the directory. *)
        with_file_lock t (fun () ->
            (* Before this handle's lease, a gc elsewhere may have
               removed its active segment: append past the newest one on
               disk. *)
            if first && not (Sys.file_exists (segment_path t t.active))
            then begin
              t.segment_list <- list_segments t.dir;
              switch_segment_locked t (newest_on_disk t + 1)
            end
            else if
              t.active_bytes > 0
              && t.active_bytes + String.length line + 1 > t.segment_bytes
            then begin
              Obs.Metrics.incr m_rotations;
              switch_segment_locked t (t.active + 1)
            end;
            output_string t.chan line;
            output_char t.chan '\n';
            flush_chan t);
        Obs.Metrics.incr m_appends;
        t.active_bytes <- t.active_bytes + String.length line + 1;
        Hashtbl.replace t.index ck r
      end)

let add t k shard =
  add_record t
    (Shard (k, { shard with Core.Campaign.s_experiments = [||] }))

let add_profile t k profile = add_record t (Profile (k, profile))

let lookup_record t ck =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let hit = Hashtbl.find_opt t.index ck in
      Obs.Metrics.incr
        (match hit with Some _ -> m_lookup_hits | None -> m_lookup_misses);
      hit)

let lookup t k =
  match lookup_record t (canonical_key k) with
  | Some (Shard (_, s)) -> Some s
  | Some (Profile _) | None -> None

let lookup_profile t k =
  match lookup_record t (canonical_pkey k) with
  | Some (Profile (_, p)) -> Some p
  | Some (Shard _) | None -> None

let fold t f acc =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      Hashtbl.fold
        (fun _ r acc ->
          match r with Shard (k, shard) -> f k shard acc | Profile _ -> acc)
        t.index acc)

let fold_profiles t f acc =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      Hashtbl.fold
        (fun _ r acc ->
          match r with Profile (k, p) -> f k p acc | Shard _ -> acc)
        t.index acc)

let segments_bytes t segments =
  List.fold_left
    (fun acc s ->
      let p = segment_path t s in
      acc + if Sys.file_exists p then file_size p else 0)
    0 segments

let stats t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      flush t.chan;
      {
        records = Hashtbl.length t.index;
        segments = List.length t.segment_list;
        bytes = segments_bytes t t.segment_list;
        truncated = t.truncated;
        corrupt = t.corrupt;
      })

let gc t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      with_file_lock t @@ fun () ->
      (* Compacting removes the segments other handles append to: refuse
         while any of them, in this process or another, holds a lease. *)
      (match
         List.filter (fun (name, _) -> Some name <> t.lease) (live_markers t)
       with
      | [] -> ()
      | others -> raise (Busy (List.sort_uniq compare (List.map snd others))));
      flush t.chan;
      (* The disk, not this handle's index, holds what other handles
         appended since it opened. *)
      let segments = list_segments t.dir in
      let index = Hashtbl.create (Hashtbl.length t.index) in
      let scan = new_scan () in
      List.iter
        (fun s -> ignore (load_segment scan index (segment_path t s)))
        segments;
      let bytes_before = segments_bytes t segments in
      close_out t.chan;
      let fresh = newest_on_disk t + 1 in
      let final_path = segment_path t fresh in
      let tmp_path = final_path ^ ".tmp" in
      let oc = open_out_bin tmp_path in
      let live =
        Hashtbl.fold (fun ck r acc -> (ck, r) :: acc) index []
        |> List.sort (fun ((a : string), _) (b, _) -> compare a b)
      in
      List.iter
        (fun (_, r) ->
          output_string oc (record_line_of r);
          output_char oc '\n')
        live;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      Sys.rename tmp_path final_path;
      List.iter (fun s -> Sys.remove (segment_path t s)) segments;
      t.index <- index;
      t.segment_list <- [ fresh ];
      open_segment t fresh;
      {
        live_records = List.length live;
        dropped_duplicates = scan.shadowed;
        segments_before = List.length segments;
        segments_after = 1;
        bytes_before;
        bytes_after = t.active_bytes;
      })

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      flush t.chan;
      (try Unix.fsync (Unix.descr_of_out_channel t.chan)
       with Unix.Unix_error _ -> ());
      close_out t.chan;
      Option.iter
        (fun name ->
          try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
        t.lease;
      t.lease <- None;
      (* Closing any descriptor of the lock file drops every fcntl lock
         this process holds on it: wait until no other handle holds one. *)
      Mutex.protect process_lock @@ fun () ->
      try Unix.close t.lock_fd with Unix.Unix_error _ -> ())

let dir t = t.dir
