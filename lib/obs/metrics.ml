(* Lock-free-per-domain metrics registry.

   Every metric shards its mutable state across a fixed number of slots;
   a domain always writes the slot indexed by its own id, so in the
   common case (at most [nslots] live domains) an update is one
   uncontended atomic on a cell no other domain is writing.  Two domains
   whose ids collide modulo [nslots] share a slot, which stays correct —
   the cells are atomics — merely contended.  Reading (snapshotting)
   folds the slots together, so a snapshot is a sum of per-domain
   contributions and is independent of how work was spread over domains.

   Registration (name -> metric) takes a mutex, but happens once per
   metric at module-initialisation time; the record/observe operations on
   the returned handles never lock.  All recording operations are gated
   on a global enabled flag so that a disabled probe costs one atomic
   load and a branch. *)

let nslots = 64 (* power of two; slot = domain id land (nslots - 1) *)
let slot () = (Domain.self () :> int) land (nslots - 1)

(* Global collection gate.  Handles can be created and read regardless;
   only the write path is switched off. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type counter = int Atomic.t array
type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds; +inf implicit *)
  cells : int Atomic.t array array;  (* nslots x (nbounds + 1) *)
  sums : float Atomic.t array;  (* nslots *)
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

type t = {
  lock : Mutex.t;
  tbl : (string * (string * string) list, metric) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

(* Decade scale for count-valued observations (instructions skipped,
   pages copied, ...) where the latency scale above is meaningless. *)
let count_buckets = [| 1.0; 10.0; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |]

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t name labels make check =
  let key = (name, canonical_labels labels) in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some m -> (
          match check m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs.Metrics: %s already registered with another kind" name))
      | None ->
          let m, v = make () in
          Hashtbl.replace t.tbl key m;
          v)

let counter ?(registry = default) ?(labels = []) name : counter =
  register registry name labels
    (fun () ->
      let c = Array.init nslots (fun _ -> Atomic.make 0) in
      (M_counter c, c))
    (function M_counter c -> Some c | _ -> None)

let gauge ?(registry = default) ?(labels = []) name : gauge =
  register registry name labels
    (fun () ->
      let g = Atomic.make 0.0 in
      (M_gauge g, g))
    (function M_gauge g -> Some g | _ -> None)

let histogram ?(registry = default) ?(labels = []) ?(buckets = default_buckets)
    name : histogram =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing")
    buckets;
  register registry name labels
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          cells =
            Array.init nslots (fun _ ->
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0));
          sums = Array.init nslots (fun _ -> Atomic.make 0.0);
        }
      in
      (M_histogram h, h))
    (function M_histogram h -> Some h | _ -> None)

(* ---- recording (lock-free; no-ops while disabled) ---- *)

let add (c : counter) n = if enabled () then ignore (Atomic.fetch_and_add c.(slot ()) n)
let incr (c : counter) = add c 1

let rec float_add cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then float_add cell x

let set (g : gauge) x = if enabled () then Atomic.set g x
let gadd (g : gauge) x = if enabled () then float_add g x

let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe (h : histogram) v =
  if enabled () then begin
    let s = slot () in
    Atomic.incr h.cells.(s).(bucket_index h.bounds v);
    float_add h.sums.(s) v
  end

(* ---- snapshots ---- *)

type hvalue = {
  le : float array;  (* bucket upper bounds; counts has one extra +inf slot *)
  counts : int array;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of hvalue

type sample = {
  name : string;
  labels : (string * string) list;
  value : value;
}

let hvalue_total h = Array.fold_left ( + ) 0 h.counts

let read_metric = function
  | M_counter c -> Counter (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c)
  | M_gauge g -> Gauge (Atomic.get g)
  | M_histogram h ->
      let counts = Array.make (Array.length h.bounds + 1) 0 in
      Array.iter
        (Array.iteri (fun i a -> counts.(i) <- counts.(i) + Atomic.get a))
        h.cells;
      let sum =
        Array.fold_left (fun acc a -> acc +. Atomic.get a) 0.0 h.sums
      in
      Histogram { le = Array.copy h.bounds; counts; sum }

let snapshot ?(registry = default) () =
  Mutex.lock registry.lock;
  let items =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry.lock)
      (fun () ->
        Hashtbl.fold
          (fun (name, labels) m acc -> { name; labels; value = read_metric m } :: acc)
          registry.tbl [])
  in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    items

let find ?(registry = default) ?(labels = []) name =
  let key = (name, canonical_labels labels) in
  Mutex.lock registry.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry.lock)
    (fun () -> Option.map read_metric (Hashtbl.find_opt registry.tbl key))

(* ---- merge (used by shard-level aggregation and tested for
   associativity; counts are integers, sums are float additions of the
   observed values) ---- *)

let merge_hvalue a b =
  if a.le <> b.le then invalid_arg "Obs.Metrics.merge_hvalue: bucket mismatch";
  {
    le = a.le;
    counts = Array.map2 ( + ) a.counts b.counts;
    sum = a.sum +. b.sum;
  }

(* ---- Prometheus-style text rendering ---- *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let render_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let render samples =
  let buf = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      if s.name <> !last_name then begin
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name (type_name s.value));
        last_name := s.name
      end;
      match s.value with
      | Counter n ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) n)
      | Gauge x ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels)
               (render_float x))
      | Histogram h ->
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i < Array.length h.le then render_float h.le.(i) else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.name
                   (render_labels (s.labels @ [ ("le", le) ]))
                   !cum))
            h.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels)
               (render_float h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels)
               (hvalue_total h)))
    samples;
  Buffer.contents buf
