(** A workload: a loaded program plus its fault-free (golden) run.

    The golden run provides the reference output for SDC detection, the
    candidate counts the injector samples time-location pairs from
    (Table II, kept in [checkpoints]), the dynamic instruction count the
    watchdog budget is derived from, the checkpoint set faulty runs
    restore from, and the memories they run on.  A workload owns all of
    it: nothing is cached process-wide, so a second [make] of the same
    module decodes and runs it again, and everything lives exactly as
    long as the workload. *)

type t = {
  name : string;
  modl : Ir.Func.modl;
      (** the source module the workload was made from; retained so the
          incremental scheduler can compute per-function fingerprints
          ([Ir.Fingerprint]) and propagation summaries *)
  prog : Vm.Program.t;
  code : Vm.Code.t;
      (** the program's compiled form, decoded once at workload creation;
          it runs the golden run and every production faulty run
          ({!Experiment.run_raw}); {!Experiment.run_oracle} runs [prog] *)
  golden : Vm.Exec.result;
  checkpoints : Vm.Checkpoint.set;
      (** golden-prefix checkpoints at {!Vm.Checkpoint.interval},
          recorded by the golden run itself, so the set's [golden] is
          this workload's [golden].  {!Experiment.run_raw} restores from
          it and arms {!Vm.Code}'s early exits against it.  Its
          [read_cands]/[write_cands] are the golden run's candidate
          totals, the only ones kept: faulty results carry none *)
  budget : int;
      (** watchdog budget for faulty runs: [hang_factor] x the golden
          dynamic count + 1000.  A run whose dynamic index reaches it
          ends [Hung] with [dyn_count = budget + 1]; the cycle exit
          ({!Vm.Code.run}'s [exits]) fast-forwards to exactly there *)
  digest : string;
      (** md5 hex digest of the printed IR; campaign results are only
          reusable across processes when the program text is unchanged, so
          the digest is part of every result-store key *)
  mem_mapped : Vm.Memory.mapped;
      (** the mapped bytes of the memory template, as runs
          ({!Vm.Memory.mapped}) — the [Mem] fault domain's location
          space *)
  code_sites : Vm.Codeflip.sites;
      (** the program's static instruction-field table — the [Code]
          fault domain's location space *)
  mems : Vm.Memory.t list Atomic.t;
      (** the spare memories ({!Vm.Memory.clone}s of [prog.mem_template])
          of this workload's runs, a lock-free stack; take one only
          through {!with_mem} *)
}

val make : ?hang_factor:int -> ?expected_output:string -> name:string ->
  Ir.Func.modl -> t
(** Load and decode the module, execute the golden run once on the
    compiled VM — recording the checkpoint set as it goes — and derive
    the budget ([hang_factor] x golden dynamic count + 1000,
    [hang_factor] 10 by default — one order of magnitude, as LLFI's
    watchdog).

    @raise Invalid_argument if the golden run does not finish normally, or
    if [expected_output] is given and differs from the golden output. *)

val candidates : t -> Spec.t -> int
(** The spec's time-axis size: the number of dynamic injection
    candidates for its technique ([Reg] domain), or the golden dynamic
    instruction count ([Mem]/[Code] — their flips land between dynamic
    instructions). *)

val with_mem : t -> (Vm.Memory.t -> 'a) -> 'a
(** [with_mem t f] applies [f] to a spare memory of [t]'s program,
    made from [prog.mem_template] only when none is spare, and
    keeps it as a spare again once [f] returns (a memory whose [f]
    raises is dropped).  The memory holds whatever its last run left:
    [f] must {!Vm.Memory.reset} or {!Vm.Memory.restore_pages} it before
    running on it.  Safe from any number of domains at once; [t] then
    holds at most as many memories as it ever had calls in flight at
    once, and they outlive the domains that used them. *)

val ensure_checkpoints : t -> Vm.Checkpoint.set option
(** [Some t.checkpoints], always.  Kept for the benchmark, which calls
    it; read [checkpoints] instead. *)

val profile : t -> int array array
(** The golden run's execution count of each (function, block), indexed
    [fidx].[bidx].  Each call runs the golden run again on the seed
    interpreter, counting in its [at] hook each block's first instruction
    ([Vm.Meta.t]'s [idx = 0]: the terminator of an empty block), and
    keeps nothing.  No experiment reads it: only the static analyses do
    — Table II's candidate prediction ([Dataflow.Candidates.predict])
    and the pruning study ([Dataflow.Prune.summarise]). *)
