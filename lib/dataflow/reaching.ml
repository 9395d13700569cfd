type def = { def_reg : int; def_bidx : int; def_idx : int }

let is_entry d = d.def_bidx < 0

type t = {
  cfg : Cfg.t;
  defs : def array;
  def_ids : int array array;  (* def_ids.(b).(i) = def id of point i, or -1 *)
  kill : Bitset.t array;  (* kill.(r) = all defs of register r *)
  entry_ids : int array;  (* entry pseudo-def id of each register *)
  reach_in : Bitset.t array;  (* per block *)
}

module Solver = Fixpoint.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let join = Bitset.union
end)

let analyse (cfg : Cfg.t) =
  let f = cfg.func in
  let nregs = Array.length f.f_reg_ty in
  let defs = ref [] in
  let ndefs = ref 0 in
  let new_def d =
    defs := d :: !defs;
    incr ndefs;
    !ndefs - 1
  in
  (* Every register has an entry pseudo-definition: parameters get the
     argument value, the rest the VM's zero-initialisation. *)
  let entry_ids =
    Array.init nregs (fun r -> new_def { def_reg = r; def_bidx = -1; def_idx = -1 })
  in
  let def_ids =
    Array.mapi
      (fun bidx (b : Ir.Func.block) ->
        Array.mapi
          (fun idx ins ->
            match Ir.Instr.dst_reg ins with
            | Some d -> new_def { def_reg = d; def_bidx = bidx; def_idx = idx }
            | None -> -1)
          b.b_instrs)
      f.f_blocks
  in
  let defs = Array.of_list (List.rev !defs) in
  let kill = Array.init nregs (fun _ -> Bitset.create !ndefs) in
  Array.iteri (fun i d -> Bitset.add kill.(d.def_reg) i) defs;
  let step state bidx idx =
    let id = def_ids.(bidx).(idx) in
    if id >= 0 then begin
      Bitset.diff_into ~into:state kill.(defs.(id).def_reg);
      Bitset.add state id
    end
  in
  let transfer bidx input =
    let state = Bitset.copy input in
    let n = Array.length f.f_blocks.(bidx).b_instrs in
    for i = 0 to n - 1 do
      step state bidx i
    done;
    state
  in
  let boundary = Bitset.create !ndefs in
  Array.iter (Bitset.add boundary) entry_ids;
  let init b = if b = 0 then Bitset.copy boundary else Bitset.create !ndefs in
  let { Solver.input = reach_in; _ } =
    Solver.solve ~cfg ~direction:Forward ~init ~transfer
  in
  { cfg; defs; def_ids; kill; entry_ids; reach_in }

let defs t = t.defs

let reaching_before t ~bidx ~idx =
  let state = Bitset.copy t.reach_in.(bidx) in
  for i = 0 to min idx (Array.length t.def_ids.(bidx)) - 1 do
    let id = t.def_ids.(bidx).(i) in
    if id >= 0 then begin
      Bitset.diff_into ~into:state t.kill.(t.defs.(id).def_reg);
      Bitset.add state id
    end
  done;
  state

let reaching_of_reg t ~bidx ~idx ~reg =
  let state = reaching_before t ~bidx ~idx in
  let l = ref [] in
  Bitset.iter
    (fun id -> if t.defs.(id).def_reg = reg then l := t.defs.(id) :: !l)
    state;
  List.rev !l
