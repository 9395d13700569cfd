(* An arena plus a dirty-page undo log.

   Every memory remembers which 256-byte pages a run touched and rewinds
   only those from the pristine template, so resetting between
   experiments costs O(dirty pages) rather than a whole-arena copy.  The
   checkpoint layer additionally snapshots/restores the dirty page set to
   re-create a mid-run memory image exactly. *)

(* 256-byte pages: small enough that a short experiment touches a
   handful, large enough that the page table stays tiny. *)
let page_bits = 8
let page_size = 1 lsl page_bits

type t = {
  arena : Bytes.t;
  mapped : Bytes.t;  (* one flag byte per arena byte; shared across clones *)
  size : int;
  template : Bytes.t;
      (* the pristine arena: the template's own, shared by its clones *)
  dirty_flag : Bytes.t; (* one byte per page *)
  mutable dirty : int array;
      (* stack of dirty page indexes, allocated at the first write: a
         template, which no run writes, keeps none *)
  mutable n_dirty : int;
  mutable mismatch : int;
      (* the page that failed the last [equal_image], compared first
         next time: a corrupted page tends to stay corrupted *)
}

let m_pages_reset = Obs.Metrics.counter "onebit_vm_dirty_pages_reset_total"

(* Kept unconditionally (a plain atomic, no Obs gate) so the benchmark
   can count restores with metrics collection disabled.  The one count
   of checkpoint restores: [Checkpoint.stats] reads it, and
   [onebit_vm_checkpoint_hits_total] is its Obs mirror. *)
let full_total = Atomic.make 0
let restore_stats () = (Atomic.get full_total, 0)

let pages_of size = (size + page_size - 1) / page_size

let with_pages ~arena ~mapped ~size ~template =
  {
    arena;
    mapped;
    size;
    template;
    dirty_flag = Bytes.make (pages_of size) '\000';
    dirty = [||];
    n_dirty = 0;
    mismatch = -1;
  }

let create_template ~size ~regions =
  let arena = Bytes.make size '\000' in
  let mapped = Bytes.make size '\000' in
  List.iter
    (fun (base, init) ->
      let len = Bytes.length init in
      if base < 0 || base + len > size then
        invalid_arg "Memory.create_template: region out of bounds";
      for i = base to base + len - 1 do
        if Bytes.get mapped i <> '\000' then
          invalid_arg "Memory.create_template: overlapping regions";
        Bytes.set mapped i '\001'
      done;
      Bytes.blit init 0 arena base len)
    regions;
  with_pages ~arena ~mapped ~size ~template:arena

let clone t =
  with_pages ~arena:(Bytes.copy t.arena) ~mapped:t.mapped ~size:t.size
    ~template:t.arena

let size t = t.size
let dirty_pages t = t.n_dirty

let mark_page t p =
  if Bytes.unsafe_get t.dirty_flag p = '\000' then begin
    Bytes.unsafe_set t.dirty_flag p '\001';
    let n = t.n_dirty in
    if n = Array.length t.dirty then begin
      let grown = Array.make (max 64 (2 * n)) 0 in
      Array.blit t.dirty 0 grown 0 n;
      t.dirty <- grown
    end;
    Array.unsafe_set t.dirty n p;
    t.n_dirty <- n + 1
  end

(* An aligned access can still straddle a page boundary (8-byte stores
   are only 4-aligned), so mark the pages of both the first and last
   byte. *)
let mark t ~width ~addr =
  let p0 = addr lsr page_bits in
  let p1 = (addr + width - 1) lsr page_bits in
  mark_page t p0;
  if p1 <> p0 then mark_page t p1

let page_len t p =
  let off = p lsl page_bits in
  min page_size (t.size - off)

let reset t =
  for k = 0 to t.n_dirty - 1 do
    let p = Array.unsafe_get t.dirty k in
    let off = p lsl page_bits in
    Bytes.blit t.template off t.arena off (page_len t p);
    Bytes.unsafe_set t.dirty_flag p '\000'
  done;
  if Obs.Metrics.enabled () then Obs.Metrics.add m_pages_reset t.n_dirty;
  t.n_dirty <- 0

(* Byte equality of [len] bytes at [a.(ao)] and [b.(bo)], a word at a
   time. *)
let equal_range a ao b bo len =
  let rec words j =
    j + 8 > len
    || Bytes.get_int64_ne a (ao + j) = Bytes.get_int64_ne b (bo + j)
       && words (j + 8)
  in
  let rec tail j =
    j >= len || (Bytes.get a (ao + j) = Bytes.get b (bo + j) && tail (j + 1))
  in
  words 0 && tail (len land lnot 7)

(* Both the dirty pages and [prev] are sorted by page index, so one
   cursor walks [prev] alongside. *)
let snapshot_pages t ~prev =
  let pages = Array.sub t.dirty 0 t.n_dirty in
  Array.sort Int.compare pages;
  let k = ref 0 and n = Array.length prev in
  Array.map
    (fun p ->
      let off = p lsl page_bits and len = page_len t p in
      while !k < n && fst prev.(!k) < p do
        incr k
      done;
      if
        !k < n
        && fst prev.(!k) = p
        && equal_range t.arena off (snd prev.(!k)) 0 len
      then prev.(!k)
      else (p, Bytes.sub t.arena off len))
    pages

let restore_pages t pages =
  reset t;
  Array.iter
    (fun (p, b) ->
      Bytes.blit b 0 t.arena (p lsl page_bits) (Bytes.length b);
      mark_page t p)
    pages;
  Atomic.incr full_total

let pages t = pages_of t.size

(* Set the entries of [last] for the pages an access covers (both, when
   it straddles a boundary) to [dyn].  Called after the access succeeded,
   so the pages are in range.  A recording run pays it on every load. *)
let[@inline] note_read last ~width ~addr dyn =
  Array.unsafe_set last (addr lsr page_bits) dyn;
  Array.unsafe_set last ((addr + width - 1) lsr page_bits) dyn

(* Index of page [p] in a snapshot sorted by page index, or -1. *)
let find_page (image : (int * bytes) array) p =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let q = fst image.(mid) in
      if q = p then mid else if q < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length image)

(* A page outside both the dirty set and [image] equals the template on
   both sides, so only those two sets are visited — after the page that
   failed last time, which usually fails again. *)
let equal_image t image ~live =
  (* Page [p] against the image's copy [image.(k)], or the template's
     when [k < 0]; a clean page of [t] holds the template's bytes. *)
  let same p k =
    (not (live p))
    ||
    let off = p lsl page_bits and len = page_len t p in
    let ok =
      if k < 0 then equal_range t.arena off t.template off len
      else equal_range t.arena off (snd image.(k)) 0 len
    in
    if not ok then t.mismatch <- p;
    ok
  in
  let rec dirty k =
    k >= t.n_dirty
    || (let p = t.dirty.(k) in
        same p (find_page image p))
       && dirty (k + 1)
  in
  let rec images k =
    k >= Array.length image
    || (let p = fst image.(k) in
        Bytes.unsafe_get t.dirty_flag p <> '\000' || same p k)
       && images (k + 1)
  in
  (t.mismatch < 0 || same t.mismatch (find_page image t.mismatch))
  && dirty 0 && images 0

let check t ~width ~addr =
  (* [addr + width] would overflow for an address near [max_int]. *)
  if addr < 0 || addr > t.size - width then raise (Trap.Trap Trap.Segfault);
  let align = if width < 4 then width else 4 in
  if addr land (align - 1) <> 0 then raise (Trap.Trap Trap.Misaligned);
  (* Guard gaps exceed the largest access width, so checking the first and
     last byte of the access suffices. *)
  if Bytes.unsafe_get t.mapped addr = '\000'
     || Bytes.unsafe_get t.mapped (addr + width - 1) = '\000'
  then raise (Trap.Trap Trap.Segfault)

let read_int t ~width ~addr =
  check t ~width ~addr;
  match width with
  | 1 -> Bytes.get_uint8 t.arena addr
  | 2 -> Bytes.get_uint16_le t.arena addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.arena addr) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le t.arena addr)
  | _ -> invalid_arg "Memory.read_int: bad width"

let write_int t ~width ~addr v =
  check t ~width ~addr;
  mark t ~width ~addr;
  match width with
  | 1 -> Bytes.set_uint8 t.arena addr (v land 0xFF)
  | 2 -> Bytes.set_uint16_le t.arena addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le t.arena addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.arena addr (Int64.of_int v)
  | _ -> invalid_arg "Memory.write_int: bad width"

let read_f64 t ~addr =
  check t ~width:8 ~addr;
  Int64.float_of_bits (Bytes.get_int64_le t.arena addr)

let write_f64 t ~addr v =
  check t ~width:8 ~addr;
  mark t ~width:8 ~addr;
  Bytes.set_int64_le t.arena addr (Int64.bits_of_float v)

(* Fault injection: flip one bit of a mapped arena byte.  Bypasses the
   alignment/width checks (a particle strike does not obey the ABI) but
   still refuses unmapped addresses, and marks the page dirty so
   [reset] rewinds the flip like any ordinary write. *)
let flip_bit t ~addr ~bit =
  if addr < 0 || addr >= t.size then
    invalid_arg "Memory.flip_bit: address out of bounds";
  if bit < 0 || bit > 7 then invalid_arg "Memory.flip_bit: bit out of range";
  if Bytes.unsafe_get t.mapped addr = '\000' then
    invalid_arg "Memory.flip_bit: unmapped address";
  mark t ~width:1 ~addr;
  Bytes.set_uint8 t.arena addr (Bytes.get_uint8 t.arena addr lxor (1 lsl bit))

(* The mapped (flippable) bytes of the arena, as runs (one per global)
   with the count of mapped bytes before each, so the k-th byte is a
   binary search away.  The mapped table is immutable and shared across
   clones, so this is a pure function of the program's layout — compute
   it once per workload. *)
type mapped = {
  starts : int array; (* first address of each run, increasing *)
  before : int array; (* mapped bytes before each run *)
  count : int;
}

let mapped t =
  let runs = ref [] and n = ref 0 and i = ref 0 in
  (* Past the bytes flagged [c] from [!i] on, eight at a time while it
     can. *)
  let run_end c =
    let word = if c = '\000' then 0L else 0x0101010101010101L in
    while !i + 8 <= t.size && Bytes.get_int64_ne t.mapped !i = word do
      i := !i + 8
    done;
    while !i < t.size && Bytes.unsafe_get t.mapped !i = c do
      incr i
    done
  in
  while !i < t.size do
    let start = !i in
    if Bytes.unsafe_get t.mapped start = '\000' then run_end '\000'
    else begin
      run_end '\001';
      runs := (start, !n) :: !runs;
      n := !n + (!i - start)
    end
  done;
  let runs = Array.of_list (List.rev !runs) in
  { starts = Array.map fst runs; before = Array.map snd runs; count = !n }

let mapped_count m = m.count

let mapped_addr m k =
  if k < 0 || k >= m.count then invalid_arg "Memory.mapped_addr";
  (* the last run with [before <= k] *)
  let lo = ref 0 and hi = ref (Array.length m.starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if m.before.(mid) <= k then lo := mid else hi := mid - 1
  done;
  m.starts.(!lo) + (k - m.before.(!lo))

let peek_bytes t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg "Memory.peek_bytes: out of bounds";
  Bytes.sub t.arena addr len
