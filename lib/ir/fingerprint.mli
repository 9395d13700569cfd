(** Content digests for functions and modules.

    The compositional campaign cache ([Engine.Incremental]) keys
    per-function outcome profiles by the function's {e identity} digest
    together with the module's {e environment} digest.  The identity
    digest pins the exact source form of the function; the environment
    digest pins everything that determines the golden run and the
    candidate/PRNG stream (globals in layout order plus the semantic
    digests of all functions reachable from the entry).  Editing one
    function in a way that preserves its semantic digest — renaming
    registers or block labels — therefore invalidates only that
    function's own profiles. *)

val func : Func.t -> string
(** Identity digest: MD5 hex of the printed function plus its
    register-type table.  Changes iff the function's source form
    changes. *)

val func_semantic : Func.t -> string
(** Semantic digest: MD5 hex of the alpha-renamed canonical form
    ([canonical]).  Stable under register renumbering, block-label
    renaming and unused-register padding. *)

val canonical : Func.t -> Func.t
(** The canonical alpha-renamed form: parameters keep indices
    [0..k-1], other registers are renumbered by first occurrence,
    never-occurring registers are dropped, block labels become
    [b<index>], and the name is erased.  For digesting only — the
    result is printable but not necessarily validated. *)

val modl : Func.modl -> string
(** Whole-module digest: MD5 hex of [Pp.modl].  This is the
    [Core.Workload] digest that result-store keys carry, and the one
    perfbench manifests record; test/cli/digests.t pins it for every
    registry program. *)

val callees : Func.t -> string list
(** Direct callee names in first-occurrence order, deduplicated;
    includes builtins. *)

val reachable : ?entry:string -> Func.modl -> string list
(** Names of module functions reachable from [entry] (default
    ["main"]) over direct calls, in module order.  If [entry] is not a
    module function every function is returned. *)

val environment : ?entry:string -> Func.modl -> string
(** Environment digest: MD5 hex over the globals (in module order —
    layout assigns addresses by position, each as [@name=] and its
    initialiser in [Pp.add_hex]'s form) and the sorted
    [(name, semantic digest)] pairs of the functions reachable from
    [entry]. *)
