(** Byte-addressable segmented memory.

    The loader lays globals out with guard gaps between them and a 4 KiB
    null page at address 0; any access touching an unmapped byte raises
    {!Trap.Trap}[ Segfault], and accesses not aligned to
    [min (size, 4)] bytes raise [Misaligned] (the paper counts 4-byte
    alignment violations as hardware exceptions).  All multi-byte accesses
    are little-endian.

    Every memory records which 256-byte pages are written since its last
    {!reset}, which rewinds exactly those from the template's pristine
    arena: O(dirty) instead of a whole-arena copy, which is what lets a
    workload reuse its memories across experiments
    ([Core.Workload.with_mem]). *)

type t

val create_template : size:int -> regions:(int * bytes) list -> t
(** A template with the given initialised, mapped regions.  Regions must be
    disjoint and in-bounds.  Templates are never executed against directly;
    every run gets a [clone]. *)

val clone : t -> t
(** An executable copy of a {e template}: a copy of its arena and a
    fresh page table, sharing the template's pristine arena and its
    immutable mapped-byte table.  The copy costs O(arena): make one per
    concurrent run, and {!reset} it between runs. *)

val page_size : int
(** Dirty-tracking granularity in bytes (256). *)

val dirty_pages : t -> int
(** Number of pages written since the last {!reset}. *)

val reset : t -> unit
(** Rewind every dirty page to the template image and clear the dirty
    set.  Exact regardless of how the previous run ended (normal end,
    trap mid-run, hang): never-written pages already equal the template. *)

val snapshot_pages : t -> prev:(int * bytes) array -> (int * bytes) array
(** Copies of the currently dirty pages, sorted by page index.  Together
    with the template this is a complete mid-run memory image: restoring
    it onto a [reset] memory reproduces the arena byte-for-byte.  [prev]
    is an earlier snapshot of a memory of the same template ([[||]] for
    none): a page whose bytes equal its copy there is that entry, shared
    rather than copied again.  Sound because no reader mutates a copy:
    {!restore_pages} and {!equal_image} only read them. *)

val restore_pages : t -> (int * bytes) array -> unit
(** [reset] followed by blitting the snapshot pages back in (re-marking
    them dirty, so a later [reset] rewinds them too).  Counted as a
    {e full} restore in {!restore_stats}. *)

val pages : t -> int
(** Number of {!page_size} pages covering the arena. *)

val note_read : int array -> width:int -> addr:int -> int -> unit
(** [note_read last ~width ~addr dyn] sets [last.(p)] to [dyn] for the
    page of the access's first byte and the page of its last (an access
    that straddles a boundary marks both).  [last] has {!pages} entries;
    the access must already have passed its bounds check.  The
    checkpoint recorder's per-page golden-read liveness. *)

val equal_image : t -> (int * bytes) array -> live:(int -> bool) -> bool
(** [equal_image t image ~live]: does [t] equal the template overlaid
    with [image] (a {!snapshot_pages} result, of this memory or of
    another run of the same template) on every page [p] with [live p]?
    Visits only [t]'s dirty pages and [image]'s pages, since every other
    page equals the template on both sides: O(dirty + image) pages, the
    page that failed [t]'s previous comparison first. *)

val restore_stats : unit -> int * int
(** [(full, 0)] — the process-wide count of full page-restores
    ({!restore_pages}) since process start, counted even when metrics
    collection is disabled, paired with a zero the benchmark's
    [memory.resets_undo] row still reads.  Every full restore is a
    checkpoint restore ({!Checkpoint.stats} reads this count), so its
    Obs mirror is [onebit_vm_checkpoint_hits_total]. *)

val size : t -> int

val read_int : t -> width:int -> addr:int -> int
(** [width] is 1, 2, 4 or 8 bytes; the result is the zero-extended value
    (an 8-byte read yields the low 63 bits). Raises {!Trap.Trap}. *)

val write_int : t -> width:int -> addr:int -> int -> unit
val read_f64 : t -> addr:int -> float
val write_f64 : t -> addr:int -> float -> unit

val flip_bit : t -> addr:int -> bit:int -> unit
(** Flip bit [bit] (0–7) of the mapped arena byte at [addr] — the
    memory-domain fault effector.  No alignment check (faults ignore the
    ABI); the touched page is marked dirty so {!reset} rewinds the flip
    exactly like a program store.  Raises
    [Invalid_argument] on an out-of-bounds or unmapped address. *)

type mapped
(** The mapped arena bytes — the memory-domain fault target space — as
    runs of consecutive addresses with cumulative counts, not one entry
    per byte. *)

val mapped : t -> mapped
(** The mapped bytes of the arena.  Determined entirely by the program's
    global layout (shared by every clone of a template), so it can be
    computed once per workload. *)

val mapped_count : mapped -> int
(** The number of mapped bytes. *)

val mapped_addr : mapped -> int -> int
(** [mapped_addr m k] is the [k]-th mapped address in increasing order
    ([0 <= k < mapped_count m]), by binary search over the runs.
    Raises [Invalid_argument] otherwise. *)

val peek_bytes : t -> addr:int -> len:int -> bytes
(** Unchecked snapshot for tests and debugging (still bounds-checked). *)
