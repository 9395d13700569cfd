(** Compositional campaign execution over cached per-function profiles.

    The campaign's experiments are partitioned by the function owning
    each experiment's first flip; every partition's outcome counts form
    a {!Core.Campaign.profile} cached in the store under the function's
    identity digest and the module's environment digest
    ([Ir.Fingerprint]).  While the environment digest is unchanged the
    partition and every experiment's course are unchanged, so composing
    cached profiles reproduces the full campaign result exactly; editing
    one function invalidates only that function's profiles, and a rerun
    re-executes only that function's share of the experiments.

    Reuse is reported through the [onebit_profile_reuse_total] /
    [onebit_profile_recompute_total] counters (experiments) and their
    [_funcs_] counterparts (functions), plus the returned {!stats}. *)

type stats = {
  funcs_total : int;
  funcs_reused : int;  (** profiles composed from the store *)
  funcs_recomputed : int;  (** profiles (re-)executed this run *)
  exps_reused : int;
  exps_recomputed : int;
}

val partition :
  Core.Workload.t -> Core.Spec.t -> n:int -> seed:int64 -> int array array
(** [partition w spec ~n ~seed].(fidx) lists, in increasing order, the
    experiment indices whose first flip lands on an instruction of
    function [fidx].  Depends only on [(w, spec, n, seed)] — the same
    draw [Campaign.run] would make.  Each call runs its own attribution
    pass: one instrumented fault-free run on the seed interpreter that
    maps every candidate ordinal to its instruction's function.

    @raise Invalid_argument if the instrumented run diverges from the
    workload's golden run (it cannot, short of a VM bug). *)

val run :
  ?jobs:int ->
  ?shard_size:int ->
  store:Store.t ->
  Core.Workload.t ->
  Core.Spec.t ->
  n:int ->
  seed:int64 ->
  Core.Campaign.result * stats
(** Compose the campaign from cached profiles, re-executing only
    functions with no valid cached profile (in parallel, [shard_size]
    experiments per task, resolved by {!Core.Config.resolve_shard_size}).
    A mem or code spec runs the fixed-N engine path instead, without the
    store, and counts every function and experiment as recomputed.  A
    reg spec runs one attribution pass (see {!partition}) per call;
    nothing is cached across calls.  The composed result equals
    [Campaign.run ~keep_experiments:false] exactly — same counters, trap
    breakdown, activation histogram and weighted sums. *)
