(** Interprocedural fault-propagation summaries.

    One summary per module function, characterising how a fault injected
    while that function's own instructions execute can cross its
    boundary: which return-value bits can deviate from the golden run,
    whether memory, the output stream, traps or termination can be
    affected (each transitively over the call graph), and which bits of
    each parameter the function demands (an interprocedural fixpoint
    over {!Bitmask}, so callers know which argument bits are benign).

    Summaries are a report, printed by [onebit digests]; no campaign is
    scheduled on them, and cached-profile validity in the incremental
    campaign scheduler is decided by [Ir.Fingerprint] digests.  Their
    sharpest prediction is {!sdc_free_single}, which the test suite
    checks by injection. *)

type t = {
  fn : string;
  params_demanded : int array;
      (** per-parameter demanded-bits mask at entry (interprocedural);
        a caller-side flip outside the mask is provably benign for
        this callee *)
  ret_corrupt : int;
      (** mask of return-value bits a fault inside the function can
        corrupt; [0] for void returns and single-constant returns *)
  corrupts_memory : bool;  (** may store, transitively *)
  emits_output : bool;  (** may append to the output stream, transitively *)
  may_trap : bool;  (** a fault inside may raise a trap, transitively *)
  may_loop : bool;  (** CFG cycle or call-graph recursion, transitively *)
  callees : string list;  (** direct callees, first-occurrence order *)
  globals : string list;  (** globals referenced, transitively, sorted *)
}

val analyse : Ir.Func.modl -> t list
(** Summaries in module function order.  Requires a module whose branch
    targets are in range (i.e. one that passes [Ir.Validate.check]). *)

val find : t list -> string -> t option

val sdc_free_single : t -> bool
(** No boundary value channel: constant-or-void return, no stores, no
    output.  Under a single-bit-flip campaign, an experiment whose flip
    lands on this function's own instructions cannot end in SDC — only
    benign, detected or hung. *)

val render : t -> string
(** Compact one-line form (what [onebit digests] prints and [digest]
    hashes). *)

val digest : t -> string
(** MD5 hex of [render]. *)
