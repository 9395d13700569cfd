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
(** Execute one faulty run of the workload under an injector, on the
    active backend ({!Config.active_backend}).  Building block for
    {!run}/{!run_at} and the CLI's replay commands.

    On the compiled backend (production) the run binds the injector's
    fault domain — [Mem] flips land in the calling domain's
    undo-tracking working memory, [Code] flips patch a private
    {!Vm.Code.fork} — and restores the golden prefix up to the first
    flip from the workload's checkpoint set ({!Workload.t}[.checkpoints]),
    executing only the suffix.
    The same set arms {!Vm.Code}'s early exits once the last flip has
    landed: the golden-rejoin exit in [Reg] and [Mem] (a [Code] flip's
    patched instruction persists, so {!Vm.Code} keeps it off on a
    patched fork), the hang-cycle exit in all three.
    With no checkpoint at or before the first flip, it resets the
    working memory in O(dirty pages) and runs from the top, exits still
    armed.  [~checkpoint:false] ([onebit reproduce] passes it, so a
    replay re-runs every instruction it reports; the benchmark's oracle
    too) bypasses both the restore and the exits.  Results are
    bit-identical either way.

    On the seed backend, the reference oracle, the interpreter runs
    under {!Injector.hooks} from the top on a private memory clone or
    program image; [checkpoint] is ignored. *)

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
