(** A fault-injection campaign: [n] independent experiments of one fault
    model on one workload (§III-E).

    Each experiment [i] uses the private generator [Prng.split_at base i],
    so campaigns are deterministic in [(seed, i)] and any experiment can be
    replayed in isolation.

    Outcome counts have one working form, the {!profile}: a {!shard} is
    the profile of an experiment range with the range attached, and a
    {!result} is built from the sum of the profiles of its shards or
    partitions. *)

type result = {
  workload_name : string;
  spec : Spec.t;
  n : int;
  seed : int64;
  benign : int;
  detected : int;  (** by hardware exception *)
  hang : int;
  no_output : int;
  sdc : int;
  traps : (Vm.Trap.t * int) list;  (** breakdown of [detected] *)
  activation : Stats.Histogram.t;  (** activated flips per experiment *)
  experiments : Experiment.t array;  (** empty unless [keep_experiments] *)
  weighted_sdc : float;
      (** sum of first-injection equivalence-class weights over SDC
          experiments (see {!Injector.injection}) *)
  weighted_total : float;  (** sum of weights over all experiments *)
}

type shard = {
  lo : int;  (** first experiment index of the shard (inclusive) *)
  hi : int;  (** one past the last experiment index (exclusive) *)
  s_benign : int;
  s_detected : int;
  s_hang : int;
  s_no_output : int;
  s_sdc : int;
  s_traps : (Vm.Trap.t * int) list;  (** canonically sorted *)
  s_activation : (int * int) list;  (** key-sorted histogram alist *)
  s_weighted_sdc : float;
  s_weighted_total : float;
  s_experiments : Experiment.t array;  (** empty unless kept *)
}
(** The partial result of experiments [lo..hi-1] of a campaign: the
    {!profile} of that range, with the range attached ({!shard_of_profile},
    {!profile_of_shard}).  Shards are the unit of parallel dispatch
    ({!Engine}) and of durable storage ({!Store}): because experiment [i]
    always runs on the private generator [Prng.split_at base i], a
    shard's content depends only on [(workload, spec, seed, lo, hi)] —
    never on which worker ran it or in what order. *)

type profile = {
  p_exps : int;  (** experiments folded into this profile *)
  p_benign : int;
  p_detected : int;
  p_hang : int;
  p_no_output : int;
  p_sdc : int;
  p_traps : (Vm.Trap.t * int) list;  (** canonically sorted *)
  p_activation : (int * int) list;  (** key-sorted histogram alist *)
  p_weighted_sdc : float;
  p_weighted_total : float;
}
(** Outcome counts of any set of a campaign's experiments: the one
    working form of outcome counts.  Experiments fold into a profile in
    one place ({!run_shard} and {!run_profile} share it), profiles sum
    in one place ({!sum_profiles}), and {!Store} carries them with one
    codec.  A {!shard} is a profile with a contiguous range attached; a
    profile alone is what the compositional cache stores per function,
    where the incremental scheduler partitions the campaign's experiment
    indices by the function owning each experiment's first flip. *)

val shard_of_profile :
  lo:int -> hi:int -> experiments:Experiment.t array -> profile -> shard
(** Attach the range [lo, hi) (and any kept experiment records) to the
    counts of its experiments.

    @raise Invalid_argument unless [p_exps = hi - lo]. *)

val profile_of_shard : shard -> profile
(** The counts of a shard, with [p_exps = hi - lo]. *)

val consistent : profile -> bool
(** The counts add up: the five outcome counts are non-negative and sum
    to [p_exps], the trap counts are non-negative and sum to
    [p_detected], and the activation keys and counts are non-negative,
    the counts summing to [p_exps].  Every profile and shard this
    library computes is consistent.  {!Store} drops records that are
    not, and the fleet refuses such completions. *)

val run_shard :
  ?keep_experiments:bool ->
  ?spacing:[ `Faulty | `Golden ] ->
  Workload.t -> Spec.t -> seed:int64 -> lo:int -> hi:int -> shard
(** Run experiments [lo..hi-1] and fold their outcomes.  Requires
    [0 <= lo < hi]. *)

val empty_profile : profile

val run_profile :
  ?spacing:[ `Faulty | `Golden ] ->
  Workload.t -> Spec.t -> seed:int64 -> indices:int array -> profile
(** Run exactly the experiments at [indices] (each on its private
    generator [Prng.split_at base i], as always) and fold their
    outcomes.  Runs the same experiments [run_shard] would, so profiles
    over a partition of [0, n) carry exactly the full campaign's
    counts. *)

val sum_profiles : profile list -> profile
(** Pointwise sum, in one pass; exact and order-independent (the
    weighted estimators add small integers represented as floats). *)

val result_of_profiles :
  workload_name:string -> Spec.t -> n:int -> seed:int64 -> profile list ->
  result
(** Compose a campaign result from profiles that together cover exactly
    [n] experiments: their {!sum_profiles}.  If the profiles partition
    [0, n) the composed result equals [run]'s (minus kept experiments,
    which profiles do not carry).

    @raise Invalid_argument if the profile sizes do not sum to [n]. *)

val equal_profile : profile -> profile -> bool

val merge :
  workload_name:string -> Spec.t -> n:int -> seed:int64 -> shard list ->
  result
(** Reassemble a campaign result from shards.  The shards must tile
    [0, n) exactly (any order); the result is {!result_of_profiles} of
    their profiles, with kept experiments concatenated in index order.
    All sums are exact (the weighted estimators add small integers
    represented as floats), so the merged result is identical whatever
    the sharding — this is what makes engine runs reproducible at any
    worker count.

    @raise Invalid_argument if the shards leave a gap or overlap. *)

val run :
  ?keep_experiments:bool ->
  ?spacing:[ `Faulty | `Golden ] ->
  Workload.t -> Spec.t -> n:int -> seed:int64 -> result
(** Requires [n > 0].  [?spacing] as in {!Injector.create}.  Equivalent
    to running the single shard [0, n) and merging it. *)

val equal_result : result -> result -> bool
(** Structural equality, including the trap breakdown, the activation
    histogram and (outcome, activated, dyn_count, output) of any kept
    experiments.  Backs the jobs-independence property tests. *)

val sdc_ci : result -> Stats.Proportion.ci
val sdc_pct : result -> float
(** SDC percentage (0..100). *)

val weighted_sdc_pct : result -> float
(** Equivalence-class-weighted SDC percentage.  The paper deliberately
    reports unweighted percentages (§III-A1: the aim is comparing fault
    models, not absolute dependability); the weighted estimator is what
    pre-injection-analysis tools would report, provided for the ablation
    study. *)
