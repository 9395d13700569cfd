(** Static prediction of the dynamic injection-candidate counts.

    An instruction is an inject-on-read candidate iff it has at least one
    register source operand, an inject-on-write candidate iff it writes a
    register — the same predicate [Vm.Exec] applies per dynamic
    instruction.  Weighting each block's static counts by its golden-run
    execution frequency therefore reproduces the dynamic Table II counts
    {e exactly}, which the test suite asserts for every bench program. *)

type counts = { reads : int; writes : int }

val zero : counts
val add : counts -> counts -> counts

val block_counts : Ir.Func.block -> counts
val func_counts : Ir.Func.t -> counts array

val predict : Ir.Func.modl -> profile:int array array -> counts
(** Static per-block counts, from a walk over the IR, weighted by the
    golden-run block execution frequencies [profile] (indexed
    [fidx].[bidx], as [Core.Workload.profile] returns them).  Table II's
    prediction ([Analysis.Table2]) calls it. *)
