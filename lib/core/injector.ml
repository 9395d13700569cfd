type injection = {
  inj_domain : Domain.t;
  inj_dyn : int;
  inj_cand : int;
  inj_loc : int;
  inj_ty : Ir.Ty.t;
  inj_slot : int;
  inj_bit : int;
  inj_weight : int;
}

type state = Wait_first of int | Wait_next of int | Done

(* Per-domain target material, attached after creation: the state
   machine (time axis, windows, budget) is domain-independent; only the
   location sampler and flip effector differ. *)
type binding =
  | Unbound
  | Breg
  | Bmem of { mapped : Vm.Memory.mapped; mem : Vm.Memory.t }
  | Bcode of {
      sites : Vm.Codeflip.sites;
      image : Vm.Program.t;
      apply :
        (fidx:int -> bidx:int -> idx:int -> Vm.Codeflip.patch -> unit) option;
    }

type t = {
  spec : Spec.t;
  rng : Prng.t;
  forced_first : (int * int * int) option;
  spacing : [ `Faulty | `Golden ];
  mutable binding : binding;
  mutable state : state;
  mutable cand_seen : int;
  mutable last_target : int; (* scheduled dyn of the previous injection *)
  mutable performed : injection list; (* reversed *)
  mutable n_performed : int;
}

let create ~spec ~candidates ?(spacing = `Faulty) ?first rng =
  if candidates <= 0 then invalid_arg "Injector.create: no candidates";
  let target =
    match first with
    | Some (cand, _, _) ->
        if cand < 0 || cand >= candidates then
          invalid_arg "Injector.create: forced candidate out of range";
        cand
    | None -> Prng.int rng candidates
  in
  {
    spec;
    rng;
    forced_first = first;
    spacing;
    binding =
      (match spec.Spec.domain with Domain.Reg -> Breg | Mem | Code -> Unbound);
    state = Wait_first target;
    cand_seen = 0;
    last_target = -1;
    performed = [];
    n_performed = 0;
  }

let domain t = t.spec.Spec.domain

let bind_mem t ~mapped ~mem =
  (match t.spec.Spec.domain with
  | Domain.Mem -> ()
  | _ -> invalid_arg "Injector.bind_mem: not a Mem-domain injector");
  t.binding <- Bmem { mapped; mem }

let bind_code t ~sites ~image ?apply () =
  (match t.spec.Spec.domain with
  | Domain.Code -> ()
  | _ -> invalid_arg "Injector.bind_code: not a Code-domain injector");
  t.binding <- Bcode { sites; image; apply }

let reg_width (frame : Vm.Exec.frame) reg =
  let ty = frame.reg_ty.(reg) in
  if Ir.Ty.is_float ty then 64 else Ir.Ty.width ty

let flip_reg (frame : Vm.Exec.frame) reg bit =
  let ty = frame.reg_ty.(reg) in
  if Ir.Ty.is_float ty then
    frame.flts.(reg) <- Ir.Bits.flip_float ~bit frame.flts.(reg)
  else frame.ints.(reg) <- Ir.Bits.flip ty ~bit frame.ints.(reg)

(* Which register does an injection of this technique target, given the
   instruction metadata?  Read -> one of the source slots; Write -> dst. *)
let choose_target t (meta : Vm.Meta.t) ~forced_slot =
  match t.spec.technique with
  | Technique.Read ->
      let n = Array.length meta.srcs in
      let slot =
        match forced_slot with
        | Some s when s >= 0 && s < n -> s
        | Some _ | None -> if n = 1 then 0 else Prng.int t.rng n
      in
      (meta.srcs.(slot), slot)
  | Technique.Write -> (meta.dst, -1)

(* Equivalence-class weight of an injection (Barbosa et al., the paper's
   §III-A1): for inject-on-read, the number of dynamic instructions the
   register stayed unmodified before this read — every fault arriving in
   that span is equivalent to this one; for inject-on-write the class is
   the write event itself.  The Mem/Code domains have no per-flip
   register context, so their weight is 1 (each event its own class). *)
let weight_of t (frame : Vm.Exec.frame) ~dyn reg =
  match t.spec.technique with
  | Technique.Write -> 1
  | Technique.Read ->
      let lw = frame.last_write.(reg) in
      if lw < 0 then dyn + 1 else max 1 (dyn - lw)

let record t frame ~dyn ~cand ~reg ~ty ~slot ~bit =
  t.performed <-
    {
      inj_domain = Domain.Reg;
      inj_dyn = dyn;
      inj_cand = cand;
      inj_loc = reg;
      inj_ty = ty;
      inj_slot = slot;
      inj_bit = bit;
      inj_weight = weight_of t frame ~dyn reg;
    }
    :: t.performed;
  t.n_performed <- t.n_performed + 1

(* Mem/Code injection log entry: [loc] is the arena address (Mem) or the
   site ordinal (Code); weight is 1, there is no operand slot. *)
let record_at t ~dyn ~cand ~loc ~ty ~bit =
  t.performed <-
    {
      inj_domain = t.spec.Spec.domain;
      inj_dyn = dyn;
      inj_cand = cand;
      inj_loc = loc;
      inj_ty = ty;
      inj_slot = -1;
      inj_bit = bit;
      inj_weight = 1;
    }
    :: t.performed;
  t.n_performed <- t.n_performed + 1

let after_injection t ~dyn =
  if t.n_performed >= t.spec.max_mbf then t.state <- Done
  else begin
    let w = Win.sample t.spec.win t.rng in
    (* `Faulty (the default, and the model of the paper) spaces windows
       from where the previous flip actually landed in the perturbed run;
       `Golden pre-commits the schedule from the first flip onward, as if
       distances were measured on the fault-free trace. *)
    let base =
      match t.spacing with
      | `Faulty -> dyn
      | `Golden -> if t.last_target >= 0 then t.last_target else dyn
    in
    t.last_target <- base + w;
    t.state <- Wait_next (base + w)
  end

let win0_multi t =
  t.spec.max_mbf > 1 && Win.equal t.spec.win (Fixed 0)

(* A win-0 burst's bits: [max_mbf] distinct bits of a [w]-bit field,
   capped by [w], the [forced] bit first when there is one. *)
let burst t ~w forced =
  let k = min t.spec.max_mbf w in
  match forced with
  | Some b ->
      b
      :: (Prng.sample_distinct t.rng ~k:(k - 1) ~n:(w - 1)
         |> List.map (fun x -> if x >= b then x + 1 else x))
  | None -> Prng.sample_distinct t.rng ~k ~n:w

let fire_first t ~dyn frame meta =
  let forced_slot, forced_bit =
    match t.forced_first with
    | Some (_, slot, bit) -> (Some slot, Some bit)
    | None -> (None, None)
  in
  let reg, slot = choose_target t meta ~forced_slot in
  let width = reg_width frame reg in
  if win0_multi t then begin
    (* All flips at once: distinct bits of the same register operand. *)
    List.iteri
      (fun i bit ->
        flip_reg frame reg bit;
        record t frame ~dyn
          ~cand:(if i = 0 then t.cand_seen else -1)
          ~reg ~ty:frame.reg_ty.(reg) ~slot ~bit)
      (burst t ~w:width forced_bit);
    t.state <- Done
  end
  else begin
    let bit =
      match forced_bit with Some b -> b | None -> Prng.int t.rng width
    in
    flip_reg frame reg bit;
    record t frame ~dyn ~cand:t.cand_seen ~reg ~ty:frame.reg_ty.(reg) ~slot
      ~bit;
    after_injection t ~dyn
  end

let fire_next t ~dyn frame meta =
  let reg, slot = choose_target t meta ~forced_slot:None in
  let width = reg_width frame reg in
  let bit = Prng.int t.rng width in
  flip_reg frame reg bit;
  record t frame ~dyn ~cand:(-1) ~reg ~ty:frame.reg_ty.(reg) ~slot ~bit;
  after_injection t ~dyn

(* ---- Mem / Code effectors ---- *)

(* Flip a uniform bit of a uniform live (mapped) arena byte.  The flip
   marks the page dirty, so a reset restores it like any program
   store. *)
let fire_mem t ~dyn ~first mapped mem =
  let n = Vm.Memory.mapped_count mapped in
  if n = 0 then t.state <- Done
  else begin
    let forced_bit =
      if first then
        match t.forced_first with
        | Some (_, _, b) when b >= 0 && b < 8 -> Some b
        | _ -> None
      else None
    in
    let addr = Vm.Memory.mapped_addr mapped (Prng.int t.rng n) in
    if first && win0_multi t then begin
      List.iteri
        (fun i bit ->
          Vm.Memory.flip_bit mem ~addr ~bit;
          record_at t ~dyn
            ~cand:(if i = 0 then dyn else -1)
            ~loc:addr ~ty:Ir.Ty.I8 ~bit)
        (burst t ~w:8 forced_bit);
      t.state <- Done
    end
    else begin
      let bit =
        match forced_bit with Some b -> b | None -> Prng.int t.rng 8
      in
      Vm.Memory.flip_bit mem ~addr ~bit;
      record_at t ~dyn ~cand:(if first then dyn else -1) ~loc:addr
        ~ty:Ir.Ty.I8 ~bit;
      after_injection t ~dyn
    end
  end

(* Flip a uniform bit of the program's flippable-field space.  The
   injection is recorded *before* the flip is applied: an undecodable
   result raises [Trap.Trap Ill_instr] out of the effector (through the
   run loop — the decode-stage detection), and the log must still show
   the flip that killed the run. *)
let fire_code t ~dyn ~first sites image apply =
  let total = Vm.Codeflip.total_bits sites in
  if total = 0 then t.state <- Done
  else begin
    let forced_bit =
      if first then
        match t.forced_first with
        | Some (_, _, b) when b >= 0 && b < total -> Some b
        | _ -> None
      else None
    in
    let g =
      match forced_bit with Some b -> b | None -> Prng.int t.rng total
    in
    let site, sbit = Vm.Codeflip.locate sites g in
    let do_flip ~cand bit =
      record_at t ~dyn ~cand ~loc:site ~ty:Ir.Ty.I64 ~bit;
      let patch = Vm.Codeflip.flip sites image ~site ~bit in
      match apply with
      | Some f ->
          let fidx, bidx, idx = Vm.Codeflip.site_coords sites site in
          f ~fidx ~bidx ~idx patch
      | None -> ()
    in
    if first && win0_multi t then begin
      let bits =
        burst t ~w:(Vm.Codeflip.site_bits sites site) (Some sbit)
      in
      (* Mark Done before applying: a flip may raise Ill_instr and the
         state machine must not be re-entered by an outer handler. *)
      t.state <- Done;
      List.iteri
        (fun i bit -> do_flip ~cand:(if i = 0 then dyn else -1) bit)
        bits
    end
    else begin
      do_flip ~cand:(if first then dyn else -1) sbit;
      after_injection t ~dyn
    end
  end

let fire_domain t ~dyn ~first =
  match t.binding with
  | Bmem { mapped; mem } -> fire_mem t ~dyn ~first mapped mem
  | Bcode { sites; image; apply } -> fire_code t ~dyn ~first sites image apply
  | Breg -> assert false
  | Unbound ->
      failwith "Injector: Mem/Code domain not bound (bind_mem/bind_code)"

let on_candidate t ~dyn frame meta =
  match t.state with
  | Done -> ()
  | Wait_first target ->
      if t.cand_seen = target then fire_first t ~dyn frame meta;
      t.cand_seen <- t.cand_seen + 1
  | Wait_next target_dyn -> if dyn >= target_dyn then fire_next t ~dyn frame meta

(* Mem/Code time axis: the raw dynamic-instruction stream.  Fires at the
   first instruction whose dynamic index reaches the target — before it
   executes, between dynamic instructions. *)
let on_dyn t ~dyn _frame _meta =
  match t.state with
  | Done -> ()
  | Wait_first target -> if dyn >= target then fire_domain t ~dyn ~first:true
  | Wait_next target -> if dyn >= target then fire_domain t ~dyn ~first:false

(* ---- run-until-event schedule (compiled backend) ---- *)

let is_reg t = Domain.equal t.spec.Spec.domain Domain.Reg

(* Next watched-candidate ordinal the injector must observe, or max_int
   when none is pending on the ordinal axis. *)
let next_cand t =
  match t.state with Wait_first c when is_reg t -> c | _ -> max_int

(* Next dynamic index of interest, or max_int.  For Mem/Code the first
   target lives on the dyn axis too. *)
let next_dyn t =
  match t.state with
  | Wait_next d -> d
  | Wait_first d when not (is_reg t) -> d
  | _ -> max_int

(* Unlike [on_candidate], the compiled loop maintains the candidate
   ordinal itself and only enters the slow path at a scheduled event, so
   [cand_seen] is assigned (not incremented) from the ordinal the loop
   hands us. *)
let on_event t ~dyn ~cand frame meta =
  match t.state with
  | Done -> ()
  | Wait_first target ->
      if cand = target then begin
        t.cand_seen <- cand;
        fire_first t ~dyn frame meta
      end
  | Wait_next target_dyn ->
      if dyn >= target_dyn then fire_next t ~dyn frame meta

let events t : Vm.Code.events =
  match t.spec.Spec.domain with
  | Domain.Reg ->
      let watch =
        match t.spec.technique with
        | Technique.Read -> `Read
        | Technique.Write -> `Write
      in
      let rec ev =
        {
          Vm.Code.watch;
          ev_cand = next_cand t;
          ev_dyn = next_dyn t;
          handle =
            (fun ~dyn ~cand frame meta ->
              on_event t ~dyn ~cand frame meta;
              ev.Vm.Code.ev_cand <- next_cand t;
              ev.Vm.Code.ev_dyn <- next_dyn t);
        }
      in
      ev
  | Mem | Code ->
      let rec ev =
        {
          Vm.Code.watch = `Dyn;
          ev_cand = max_int;
          ev_dyn = next_dyn t;
          handle =
            (fun ~dyn ~cand:_ frame meta ->
              on_dyn t ~dyn frame meta;
              ev.Vm.Code.ev_dyn <- next_dyn t);
        }
      in
      ev

let hooks t : Vm.Exec.hooks =
  match t.spec.Spec.domain with
  | Domain.Mem | Domain.Code ->
      {
        pre = Vm.Exec.no_hook;
        post = Vm.Exec.no_hook;
        at = (fun ~dyn frame meta -> on_dyn t ~dyn frame meta);
      }
  | Domain.Reg -> (
      match t.spec.technique with
      | Technique.Read ->
          {
            pre = (fun ~dyn frame meta -> on_candidate t ~dyn frame meta);
            post = Vm.Exec.no_hook;
            at = Vm.Exec.no_hook;
          }
      | Technique.Write ->
          {
            pre = Vm.Exec.no_hook;
            post = (fun ~dyn frame meta -> on_candidate t ~dyn frame meta);
            at = Vm.Exec.no_hook;
          })

(* The first flip's scheduled target — a candidate ordinal (Reg) or a
   dynamic index (Mem/Code) — fixed at creation, so the checkpoint layer
   can fast-forward the golden prefix before any injector state or
   randomness is touched. *)
let first_target t = match t.state with Wait_first c -> Some c | _ -> None

let activated t = t.n_performed
let injections t = List.rev t.performed

let first_injection t =
  match List.rev t.performed with [] -> None | first :: _ -> Some first
