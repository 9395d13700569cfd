(** The bit-flip injector: LLFI's time-location model extended to
    multiple bit-flips (§III-C) and to pluggable fault domains.

    One injector instance drives one experiment.  The state machine —
    when flips happen — is domain-independent: the {e first} injection's
    time is drawn uniformly over the domain's candidate space at
    creation, and subsequent injections are placed in the {e faulty}
    execution ([w > 0]: the next flip hits the first event at dynamic
    index [>= d + w]; [w = 0]: all [max-MBF] flips land at once on the
    same target, capped by its width).  A flip only counts as
    {e activated} if its event is actually reached, which is how crashes
    truncate multi-bit injections (RQ1).

    What differs per {!Domain.t} is the location sampler and effector:

    - [Reg] — the paper's model.  Time is a candidate ordinal of the
      spec's technique (inject-on-read / inject-on-write); location is a
      uniform register operand slot and a uniform bit of that register's
      live value.
    - [Mem] — time is a raw dynamic-instruction index; location is a
      uniform bit of a uniform mapped arena byte, flipped between
      dynamic instructions.  Requires {!bind_mem}.
    - [Code] — time is a dynamic-instruction index; location is a
      uniform bit of the program's encoded-instruction field space
      ({!Vm.Codeflip}), mutating the stored program from that point on.
      An undecodable flip raises {!Vm.Trap.Trap}[ Ill_instr] out of the
      run.  Requires {!bind_code}.

    The Mem/Code techniques carry no read/write distinction — the
    spec's technique is ignored at runtime for those domains. *)

type injection = {
  inj_domain : Domain.t;  (** domain that performed this flip *)
  inj_dyn : int;  (** dynamic index of the targeted event *)
  inj_cand : int;
      (** first injection only (else -1): the candidate ordinal (Reg) or
          the scheduled dynamic index (Mem/Code) *)
  inj_loc : int;
      (** flipped location: register (Reg), arena byte address (Mem), or
          site ordinal (Code) *)
  inj_ty : Ir.Ty.t;
      (** the flipped value's type: the register's type (Reg, Ptr =
          address), [I8] (Mem), [I64] (Code — an encoded word) *)
  inj_slot : int;  (** operand slot (Reg read), -1 otherwise *)
  inj_bit : int;
      (** bit flipped: within the register (Reg), the byte (Mem), or the
          site's field space (Code) *)
  inj_weight : int;
      (** size of the injection's pre-injection equivalence class: for
          inject-on-read, the dynamic distance since the register was
          last written (Barbosa et al.'s weight, §III-A1 of the paper);
          1 for inject-on-write and for the Mem/Code domains *)
}

type t

val create :
  spec:Spec.t ->
  candidates:int ->
  ?spacing:[ `Faulty | `Golden ] ->
  ?first:int * int * int ->
  Prng.t ->
  t
(** [create ~spec ~candidates rng] prepares an injector; [candidates] is
    the domain's time-axis size — the golden candidate count for
    [spec.technique] (Reg) or the golden dynamic instruction count
    (Mem/Code, see {!Workload.candidates}).  [?first] forces the first
    injection's (time target, slot, bit) — used by the
    location-sensitivity study (RQ5) to replay a single-bit location
    under a multi-bit model; for Mem/Code the slot is ignored and the
    bit (byte bit / global field-space ordinal) is honoured when in
    range.  Requires [candidates > 0].

    A [Mem]/[Code] injector must be bound ({!bind_mem} / {!bind_code})
    before its hooks or events run. *)

val domain : t -> Domain.t

val bind_mem : t -> mapped:Vm.Memory.mapped -> mem:Vm.Memory.t -> unit
(** Attach the Mem-domain target: the mapped bytes (static per
    workload, {!Vm.Memory.mapped} of the template) and the live
    memory this run executes against.  Re-bind per run — the memory is
    run-private (a clone, or one of the workload's memories; flips
    mark pages dirty, so a reset or page-restore undoes them). *)

val bind_code :
  t ->
  sites:Vm.Codeflip.sites ->
  image:Vm.Program.t ->
  ?apply:(fidx:int -> bidx:int -> idx:int -> Vm.Codeflip.patch -> unit) ->
  unit ->
  unit
(** Attach the Code-domain target: the site table (static per workload)
    and this run's private program image.  The seed backend executes the
    image directly; the compiled backend additionally passes [apply]
    (typically {!Vm.Code.patch} on a {!Vm.Code.fork}) to mirror each
    flip into the decoded micro-ops — its decode-cache invalidation. *)

val hooks : t -> Vm.Exec.hooks
(** VM hooks implementing the injection state machine (seed backend):
    [pre]/[post] for Reg, the [at] dynamic-stream hook for Mem/Code. *)

val events : t -> Vm.Code.events
(** The same state machine as a run-until-event schedule for the
    compiled backend ({!Vm.Code.run}): yields the next target candidate
    ordinal or dynamic index.  PRNG draws happen in the same order as
    under {!hooks}, so the two backends produce bit-identical
    injections.  Use an injector instance with exactly one of
    [hooks]/[events]. *)

val first_target : t -> int option
(** The first flip's scheduled time target, drawn (or forced) at
    {!create} — [Some] until the first flip fires.  A candidate ordinal
    for Reg, a dynamic index for Mem/Code (the checkpoint axes [`Read] /
    [`Write] / [`Dyn]).  Execution is fault-free and consumes no
    injector randomness before that point, which is what lets
    {!Experiment} resume from a golden-prefix checkpoint at-or-before it
    ({!Vm.Checkpoint}). *)

val activated : t -> int
(** Number of flips actually performed so far. *)

val injections : t -> injection list
(** All performed injections, in order. *)

val first_injection : t -> injection option
