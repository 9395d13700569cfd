(** One fault-injection experiment: a single faulty run of a workload. *)

type t = {
  outcome : Outcome.t;
  activated : int;  (** flips actually performed (RQ1) *)
  first : Injector.injection option;
      (** the first injection, or [None] if even it was never reached
          (cannot happen for the first injection by construction, but kept
          total for robustness) *)
  dyn_count : int;  (** dynamic length of the faulty run *)
  output : string;  (** the faulty run's output stream *)
}

val run_raw : ?checkpoint:bool -> Workload.t -> Injector.t -> Vm.Exec.result
(** Execute one faulty run of the workload under an injector: the
    production path, on the compiled micro-op pipeline.  Building block
    for {!run}/{!run_at} and the CLI's replay commands.

    The run takes one of the workload's memories
    ({!Workload.with_mem}; it gives it back when the run returns) and
    binds the injector's fault domain —
    [Mem] flips land in that memory, [Code] flips patch a private
    {!Vm.Code.fork} — and restores the golden prefix up to the first
    flip from the workload's checkpoint set ({!Workload.t}[.checkpoints]),
    executing only the suffix.
    The same set arms {!Vm.Code}'s early exits once the last flip has
    landed: the golden-rejoin exit in [Reg] and [Mem] (a [Code] flip's
    patched instruction persists, so {!Vm.Code} keeps it off on a
    patched fork), the hang-cycle exit in all three.  A run rejoins the
    golden run once its stack and live memory equal a golden point's,
    at that point's dyn ([golden] in {!Vm.Code.exit_stats}) or within
    {!Vm.Code.rejoin_window} of it ([shifted]), whatever output it has
    emitted: it then finishes with that output followed by the golden
    run's from the point, its length moved by the shift.
    With no checkpoint at or before the first flip, it resets the
    memory in O(dirty pages) and runs from the top, exits still
    armed.  [~checkpoint:false] ([onebit reproduce] passes it, so a
    replay re-runs every instruction it reports; the benchmark's oracle
    too) bypasses both the restore and the exits.  Results are
    bit-identical either way, and bit-identical to {!run_oracle}'s.

    Under [ONEBIT_BACKEND=seed] ({!Config.active_backend}, resolved once
    at start-up; only [perfbench refs] sets it) every call is
    {!run_oracle}, and [checkpoint] is ignored. *)

val run_oracle : Workload.t -> Injector.t -> Vm.Exec.result
(** The reference oracle: one faulty run on the seed interpreter
    ({!Vm.Exec.run}) under {!Injector.hooks}, from the top, on a private
    memory clone ([Mem]) or program image ([Code]).  It never restores a
    checkpoint and never exits early.  The differential tests and
    [onebit reproduce] compare {!run_raw} against it. *)

val conclude : Workload.t -> Injector.t -> Vm.Exec.result -> t
(** Classify a finished faulty run against the workload's golden output
    and package it with the injector's activation record, bumping the
    experiment/activation/domain metrics. *)

val run :
  ?spacing:[ `Faulty | `Golden ] -> Workload.t -> Spec.t -> Prng.t -> t
(** Run one experiment with a private generator ([?spacing] as in
    {!Injector.create}). *)

val run_at : Workload.t -> Spec.t -> first:int * int * int -> Prng.t -> t
(** Like {!run} but forcing the first injection's (candidate ordinal,
    slot, bit) — the RQ5 location-replay mode. *)
