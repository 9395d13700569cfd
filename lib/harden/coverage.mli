(** Fault-coverage comparison of hardening passes across fault domains.

    SWIFT ({!Swift}) and TMR ({!Tmr}) target the register-operand fault
    model; their guarantees do not extend to flips landing in live
    memory (SWIFT explicitly assumes ECC-protected memory — a corrupted
    load feeds original and shadow alike) or in the stored program
    (neither pass duplicates instructions' encodings).  Running the same
    baseline/hardened variants under each {!Core.Domain} puts numbers on
    that blind spot. *)

type row = {
  cv_variant : string;  (** e.g. ["fib"], ["fib+swift"], ["fib+tmr"] *)
  cv_domain : Core.Domain.t;
  cv_n : int;
  cv_sdc : float;  (** silent data corruptions, % of [cv_n] *)
  cv_detected : float;
      (** detected + hang + no-output, % of [cv_n] — everything the run
          visibly stopped or flagged *)
  cv_benign : float;  (** masked faults, % of [cv_n] *)
}

val measure :
  ?domains:Core.Domain.t list ->
  variants:(string * Core.Workload.t) list ->
  n:int ->
  seed:int64 ->
  unit ->
  row list
(** One [n]-experiment single-flip inject-on-write campaign per
    (variant, domain) — the technique is ignored at runtime by the
    non-register domains — with [domains] defaulting to
    {!Core.Domain.all}.  Rows come
    back variant-major in the order given. *)

val header : string list
(** Column titles matching {!to_cells}. *)

val to_cells : row -> string list
(** One table row: variant, domain, n, and the three percentages. *)
