(** A workload: a loaded program plus its fault-free (golden) run.

    The golden run provides the reference output for SDC detection, the
    candidate counts the injector samples time-location pairs from
    (Table II), the dynamic instruction count the watchdog budget is
    derived from, and the checkpoint set faulty runs restore from.  A
    workload owns all of it: nothing is cached process-wide, so a second
    [make] of the same module decodes and runs it again. *)

type t = {
  name : string;
  modl : Ir.Func.modl;
      (** the source module the workload was made from; retained so the
          incremental scheduler can compute per-function fingerprints
          ([Ir.Fingerprint]) and propagation summaries *)
  prog : Vm.Program.t;
  code : Vm.Code.t;
      (** the program's compiled form, decoded once at workload creation;
          it runs the golden run, and every faulty run on the [Compiled]
          backend ({!Config.active_backend}) *)
  golden : Vm.Exec.result;
  profile : int array array;
      (** golden-run execution count of each (function, block), indexed
          [fidx].[bidx]; feeds the static candidate predictor
          ([Dataflow.Candidates]) and the pruning study *)
  checkpoints : Vm.Checkpoint.set;
      (** golden-prefix checkpoints at {!Vm.Checkpoint.interval},
          recorded by the golden run itself, so the set's [golden] is
          this workload's [golden].  {!Experiment.run_raw} restores from
          it and arms {!Vm.Code}'s early exits against it *)
  budget : int;
      (** watchdog budget for faulty runs: [hang_factor] x the golden
          dynamic count + 1000.  A run whose dynamic index reaches it
          ends [Hung] with [dyn_count = budget + 1]; the cycle exit
          ({!Vm.Code.run}'s [exits]) fast-forwards to exactly there *)
  digest : string;
      (** md5 hex digest of the printed IR; campaign results are only
          reusable across processes when the program text is unchanged, so
          the digest is part of every result-store key *)
  mem_addrs : int array;
      (** mapped arena addresses of the memory template, in address
          order — the [Mem] fault domain's location space *)
  code_sites : Vm.Codeflip.sites;
      (** the program's static instruction-field table — the [Code]
          fault domain's location space *)
}

val make : ?hang_factor:int -> ?expected_output:string -> name:string ->
  Ir.Func.modl -> t
(** Load and decode the module, execute the golden run once on the
    compiled VM — recording the block profile and the checkpoint set as
    it goes — and derive the budget ([hang_factor] x golden dynamic
    count + 1000, [hang_factor] 10 by default — one order of magnitude,
    as LLFI's watchdog).

    @raise Invalid_argument if the golden run does not finish normally, or
    if [expected_output] is given and differs from the golden output. *)

val candidates : t -> Spec.t -> int
(** The spec's time-axis size: the number of dynamic injection
    candidates for its technique ([Reg] domain), or the golden dynamic
    instruction count ([Mem]/[Code] — their flips land between dynamic
    instructions). *)

val ensure_checkpoints : t -> Vm.Checkpoint.set option
(** [Some t.checkpoints], always.  Kept for the benchmark, which calls
    it; read [checkpoints] instead. *)
