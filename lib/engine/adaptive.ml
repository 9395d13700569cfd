(* CI-targeted sequential sampling over a multi-cell campaign grid.

   A fixed-N study spends the same budget on every cell of the grid even
   though most cells' outcome proportions are dead-certain long before N
   is exhausted.  Adaptive sampling runs the grid in rounds: each round
   grants every still-open cell a deterministic batch of shards, waits
   for all of them (the round barrier), recomputes each cell's Wilson
   interval on its SDC proportion, closes cells whose half-width has hit
   the target, and sizes the next round's grants from the sample-size
   planner, widest intervals first.

   Determinism is the load-bearing property.  Every experiment the
   sampler runs is the one a fixed-N campaign would run: shard
   boundaries come from the canonical cap tiling ([Shards.tile ~n:cap],
   not the adaptive stopping point), and experiment [i] always runs on
   [Prng.split_at base i].  Because a prefix of the cap tiling up to any
   shard boundary IS the tiling of that boundary, a cell closed at
   [closed_at] merges into a result byte-identical to
   [Engine.run_campaign ~n:closed_at].  And because allocation decisions
   read only merged prefix results at round barriers — never arrival
   order — any execution (one process, any pool size, any fleet shape,
   any kill history) grants the identical experiment set.

   Store keys use [~n:cap], so adaptive shards are a prefix-compatible
   subset of a fixed-N(cap) run's records: either run can resume or
   extend the other. *)

let m_rounds = Obs.Metrics.counter "onebit_adaptive_rounds_total"
let m_saved = Obs.Metrics.counter "onebit_adaptive_exps_saved_total"

let m_closed_at =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.count_buckets
    "onebit_adaptive_closed_at"

module Control = struct
  (* The pure allocation state machine, shard-granular and generic over
     what a "cell" is: the in-process runner below and the fleet
     coordinator both drive one of these, which is what makes the two
     produce the identical experiment set. *)

  type cell = {
    cap : int;
    ranges : (int * int) array;  (* the fixed cap tiling *)
    mutable granted : int;  (* shards granted so far (a tiling prefix) *)
    mutable closed : bool;
    mutable met : bool;  (* closed because the CI target was reached *)
    mutable hw : float;  (* half-width at the last barrier; 1.0 = no data *)
  }

  type t = {
    cells : cell array;
    shard_size : int;
    target : float;
    initial : int;  (* first grant per cell, in experiments *)
    mutable rounds : int;
  }

  let create ?initial ~target ~shard_size caps =
    if not (target > 0. && target < 1.) then
      invalid_arg "Adaptive.Control.create: target must be in (0, 1)";
    let shard_size = max 1 shard_size in
    let initial =
      match initial with Some i when i > 0 -> i | _ -> 2 * shard_size
    in
    let cells =
      Array.map
        (fun cap ->
          if cap <= 0 then
            invalid_arg "Adaptive.Control.create: cap must be positive";
          {
            cap;
            ranges = Array.of_list (Shards.tile ~n:cap ~shard_size);
            granted = 0;
            closed = false;
            met = false;
            hw = 1.0;
          })
        caps
    in
    { cells; shard_size; target; initial; rounds = 0 }

  let n_cells t = Array.length t.cells

  (* Experiments covered by the granted shard prefix. *)
  let granted_exps c = if c.granted = 0 then 0 else snd c.ranges.(c.granted - 1)

  let closed t i = t.cells.(i).closed
  let met t i = t.cells.(i).met
  let closed_at t i = granted_exps t.cells.(i)
  let half_width t i = t.cells.(i).hw
  let rounds t = t.rounds
  let finished t = Array.for_all (fun c -> c.closed) t.cells

  (* Fewest whole shards covering [exps] more experiments (all remaining
     shards if the cap runs out first). *)
  let shards_for c exps =
    if exps <= 0 then 0
    else begin
      let have = granted_exps c in
      let total = Array.length c.ranges in
      let k = ref 0 in
      while
        c.granted + !k < total && snd c.ranges.(c.granted + !k) - have < exps
      do
        incr k
      done;
      if c.granted + !k < total then !k + 1 else !k
    end

  (* One round barrier.  [obs i] is the merged (trials, sdc successes)
     of cell [i]'s granted prefix — every granted shard has completed,
     which is what the caller's barrier guarantees.  Closes what can
     close, then returns the next round's grants as
     [(cell index, (lo, hi) list)]; [] means the grid is done.
     Deterministic in the observations alone. *)
  let step t ~obs =
    Array.iteri
      (fun i c ->
        if not c.closed then begin
          let trials, sdc = obs i in
          let hw =
            if trials <= 0 then 1.0
            else
              Stats.Proportion.half_width
                (Stats.Proportion.wilson ~successes:sdc ~trials ())
          in
          c.hw <- hw;
          if trials > 0 && hw <= t.target then begin
            c.closed <- true;
            c.met <- true
          end
          else if c.granted >= Array.length c.ranges then begin
            (* Cap exhausted before the target: close unmet. *)
            c.closed <- true;
            c.met <- false
          end
        end)
      t.cells;
    let opens =
      Array.to_list (Array.mapi (fun i c -> (i, c)) t.cells)
      |> List.filter (fun (_, c) -> not c.closed)
    in
    if opens = [] then []
    else begin
      (* Desired grant per open cell: what the planner says is still
         missing to reach the target at the current estimate, clamped to
         at most double the evidence so one lucky early sample cannot
         commit the whole budget, and to at least one shard so every
         open cell makes progress. *)
      let desired =
        List.map
          (fun (i, c) ->
            let trials, sdc = obs i in
            let d =
              if trials = 0 then t.initial
              else
                let p = float_of_int sdc /. float_of_int trials in
                let needed =
                  Stats.Proportion.needed_trials ~p ~half_width:t.target ()
                in
                min (max (needed - trials) t.shard_size) trials
            in
            (i, c, shards_for c d))
          opens
      in
      (* Widest interval first; index order breaks ties so the schedule
         is totally ordered whatever produced the observations. *)
      let desired =
        List.stable_sort
          (fun (i, a, _) (j, b, _) ->
            match compare b.hw a.hw with 0 -> compare i j | k -> k)
          desired
      in
      let grants =
        List.map
          (fun (i, c, k) ->
            let first = c.granted in
            c.granted <- c.granted + k;
            (i, Array.to_list (Array.sub c.ranges first k)))
          desired
      in
      t.rounds <- t.rounds + 1;
      grants
    end
end

type cell = {
  c_workload : Core.Workload.t;
  c_spec : Core.Spec.t;
  c_cap : int;
  c_seed : int64;
}

type cell_result = {
  r_cell : cell;
  r_result : Core.Campaign.result;  (* n = closed_at: a fixed-N prefix *)
  r_closed_at : int;
  r_met : bool;
}

type grid_stats = {
  g_rounds : int;
  g_executed : int;  (* experiments actually run by this invocation *)
  g_from_store : int;  (* experiments satisfied by the store *)
  g_saved : int;  (* sum over cells of cap - closed_at *)
}

let run_grid ?jobs ?shard_size ?store ?log ~target cells =
  if cells = [] then invalid_arg "Adaptive.run_grid: empty grid";
  let shard_size = Core.Config.resolve_shard_size shard_size in
  let cells = Array.of_list cells in
  let ctl =
    Control.create ~target ~shard_size
      (Array.map (fun c -> c.c_cap) cells)
  in
  (* Completed shards per cell: its granted prefix, in any order. *)
  let taken = Array.make (Array.length cells) [] in
  let totals = ref Obs.Snapshot.zero in
  let obs i =
    List.fold_left
      (fun (trials, sdc) (s : Core.Campaign.shard) ->
        (trials + s.hi - s.lo, sdc + s.s_sdc))
      (0, 0) taken.(i)
  in
  let rec loop () =
    match Control.step ctl ~obs with
    | [] -> ()
    | grants ->
        (* One executor call spans every granted cell; store keys use the
           cap. *)
        let round =
          Array.of_list
            (List.concat_map
               (fun (i, ranges) -> List.map (fun r -> (i, r)) ranges)
               grants)
        in
        let job (i, (lo, hi)) =
          let c = cells.(i) in
          {
            Shards.workload = c.c_workload;
            spec = c.c_spec;
            n = c.c_cap;
            seed = c.c_seed;
            lo;
            hi;
          }
        in
        let shards, st = Shards.run ?jobs ?store (Array.map job round) in
        Array.iteri
          (fun k (i, _) -> taken.(i) <- shards.(k) :: taken.(i))
          round;
        totals := Obs.Snapshot.add !totals st;
        (match log with
        | Some f ->
            let open_cells = ref 0 in
            for i = 0 to Control.n_cells ctl - 1 do
              if not (Control.closed ctl i) then incr open_cells
            done;
            f
              (Printf.sprintf
                 "adaptive round %d: %d cells open, %d experiments granted \
                  (%d from store)"
                 (Control.rounds ctl) !open_cells
                 (st.experiments_executed + st.experiments_from_store)
                 st.experiments_from_store)
        | None -> ());
        loop ()
  in
  loop ();
  let results =
    Array.mapi
      (fun i cell ->
        let closed_at = Control.closed_at ctl i in
        Obs.Metrics.observe m_closed_at (float_of_int closed_at);
        {
          r_cell = cell;
          r_result =
            Core.Campaign.merge
              ~workload_name:cell.c_workload.Core.Workload.name cell.c_spec
              ~n:closed_at ~seed:cell.c_seed taken.(i);
          r_closed_at = closed_at;
          r_met = Control.met ctl i;
        })
      cells
  in
  let saved =
    Array.to_list (Array.mapi (fun i c -> c.c_cap - Control.closed_at ctl i) cells)
    |> List.fold_left ( + ) 0
  in
  Obs.Metrics.add m_rounds (Control.rounds ctl);
  Obs.Metrics.add m_saved saved;
  ( Array.to_list results,
    {
      g_rounds = Control.rounds ctl;
      g_executed = !totals.experiments_executed;
      g_from_store = !totals.experiments_from_store;
      g_saved = saved;
    } )
