type result = {
  workload_name : string;
  spec : Spec.t;
  n : int;
  seed : int64;
  benign : int;
  detected : int;
  hang : int;
  no_output : int;
  sdc : int;
  traps : (Vm.Trap.t * int) list;
  activation : Stats.Histogram.t;
  experiments : Experiment.t array;
  weighted_sdc : float;
  weighted_total : float;
}

type shard = {
  lo : int;
  hi : int;
  s_benign : int;
  s_detected : int;
  s_hang : int;
  s_no_output : int;
  s_sdc : int;
  s_traps : (Vm.Trap.t * int) list;
  s_activation : (int * int) list;
  s_weighted_sdc : float;
  s_weighted_total : float;
  s_experiments : Experiment.t array;
}

type profile = {
  p_exps : int;
  p_benign : int;
  p_detected : int;
  p_hang : int;
  p_no_output : int;
  p_sdc : int;
  p_traps : (Vm.Trap.t * int) list;
  p_activation : (int * int) list;
  p_weighted_sdc : float;
  p_weighted_total : float;
}

(* Trap counts, canonically sorted so hash-table order cannot leak into
   results. *)
let traps_of tbl =
  List.sort compare (Hashtbl.fold (fun t c l -> (t, c) :: l) tbl [])

let bump tbl key count =
  Hashtbl.replace tbl key
    (count + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* The one fold from experiments to outcome counts, behind [run_shard]
   and [run_profile]: both classify the same experiment stream, only the
   index sets differ. *)
let profile_of_experiments (exps : Experiment.t array) =
  let benign = ref 0 and detected = ref 0 and hang = ref 0 in
  let no_output = ref 0 and sdc = ref 0 in
  let traps = Hashtbl.create 8 and activation = Stats.Histogram.create () in
  let weighted_sdc = ref 0.0 and weighted_total = ref 0.0 in
  Array.iter
    (fun (e : Experiment.t) ->
      (match e.outcome with
      | Benign -> incr benign
      | Detected trap ->
          incr detected;
          bump traps trap 1
      | Hang -> incr hang
      | No_output -> incr no_output
      | Sdc -> incr sdc);
      Stats.Histogram.add activation e.activated;
      match e.first with
      | Some inj ->
          let w = float_of_int inj.inj_weight in
          weighted_total := !weighted_total +. w;
          if Outcome.is_sdc e.outcome then weighted_sdc := !weighted_sdc +. w
      | None -> ())
    exps;
  {
    p_exps = Array.length exps;
    p_benign = !benign;
    p_detected = !detected;
    p_hang = !hang;
    p_no_output = !no_output;
    p_sdc = !sdc;
    p_traps = traps_of traps;
    p_activation = Stats.Histogram.to_alist activation;
    p_weighted_sdc = !weighted_sdc;
    p_weighted_total = !weighted_total;
  }

let empty_profile = profile_of_experiments [||]

let shard_of_profile ~lo ~hi ~experiments p =
  if p.p_exps <> hi - lo then
    invalid_arg "Campaign.shard_of_profile: profile size differs from range";
  {
    lo;
    hi;
    s_benign = p.p_benign;
    s_detected = p.p_detected;
    s_hang = p.p_hang;
    s_no_output = p.p_no_output;
    s_sdc = p.p_sdc;
    s_traps = p.p_traps;
    s_activation = p.p_activation;
    s_weighted_sdc = p.p_weighted_sdc;
    s_weighted_total = p.p_weighted_total;
    s_experiments = experiments;
  }

let profile_of_shard s =
  {
    p_exps = s.hi - s.lo;
    p_benign = s.s_benign;
    p_detected = s.s_detected;
    p_hang = s.s_hang;
    p_no_output = s.s_no_output;
    p_sdc = s.s_sdc;
    p_traps = s.s_traps;
    p_activation = s.s_activation;
    p_weighted_sdc = s.s_weighted_sdc;
    p_weighted_total = s.s_weighted_total;
  }

let consistent p =
  let nonneg = List.for_all (fun c -> c >= 0) in
  let total = List.fold_left ( + ) 0 in
  let outcomes =
    [ p.p_benign; p.p_detected; p.p_hang; p.p_no_output; p.p_sdc ]
  in
  let traps = List.map snd p.p_traps and acts = List.map snd p.p_activation in
  nonneg outcomes
  && total outcomes = p.p_exps
  && nonneg traps
  && total traps = p.p_detected
  && List.for_all (fun (k, _) -> k >= 0) p.p_activation
  && nonneg acts
  && total acts = p.p_exps

(* Execute a set of campaign indices; result [k] is experiment
   [indices.(k)], on its private generator. *)
let run_indices ?spacing workload spec ~seed ~indices =
  let base = Prng.of_seed seed in
  Array.map
    (fun i -> Experiment.run ?spacing workload spec (Prng.split_at base i))
    indices

let run_shard ?(keep_experiments = false) ?spacing workload spec ~seed ~lo ~hi =
  if lo < 0 || hi <= lo then invalid_arg "Campaign.run_shard: bad range";
  let indices = Array.init (hi - lo) (fun k -> lo + k) in
  let exps = run_indices ?spacing workload spec ~seed ~indices in
  shard_of_profile ~lo ~hi
    ~experiments:(if keep_experiments then exps else [||])
    (profile_of_experiments exps)

let run_profile ?spacing workload spec ~seed ~indices =
  Array.iter
    (fun i ->
      if i < 0 then invalid_arg "Campaign.run_profile: negative index")
    indices;
  profile_of_experiments (run_indices ?spacing workload spec ~seed ~indices)

let sum_profiles profiles =
  let traps = Hashtbl.create 8 and activation = Stats.Histogram.create () in
  let add sum p =
    List.iter (fun (t, c) -> bump traps t c) p.p_traps;
    List.iter
      (fun (k, c) -> Stats.Histogram.add_count activation k c)
      p.p_activation;
    {
      sum with
      p_exps = sum.p_exps + p.p_exps;
      p_benign = sum.p_benign + p.p_benign;
      p_detected = sum.p_detected + p.p_detected;
      p_hang = sum.p_hang + p.p_hang;
      p_no_output = sum.p_no_output + p.p_no_output;
      p_sdc = sum.p_sdc + p.p_sdc;
      p_weighted_sdc = sum.p_weighted_sdc +. p.p_weighted_sdc;
      p_weighted_total = sum.p_weighted_total +. p.p_weighted_total;
    }
  in
  let p = List.fold_left add empty_profile profiles in
  {
    p with
    p_traps = traps_of traps;
    p_activation = Stats.Histogram.to_alist activation;
  }

let result_of_profiles ~workload_name spec ~n ~seed profiles =
  if n <= 0 then invalid_arg "Campaign.result_of_profiles: n must be positive";
  let p = sum_profiles profiles in
  if p.p_exps <> n then
    invalid_arg
      (Printf.sprintf
         "Campaign.result_of_profiles: profiles cover %d experiments but n \
          = %d"
         p.p_exps n);
  let activation = Stats.Histogram.create () in
  List.iter
    (fun (k, c) -> Stats.Histogram.add_count activation k c)
    p.p_activation;
  {
    workload_name;
    spec;
    n;
    seed;
    benign = p.p_benign;
    detected = p.p_detected;
    hang = p.p_hang;
    no_output = p.p_no_output;
    sdc = p.p_sdc;
    traps = p.p_traps;
    activation;
    experiments = [||];
    weighted_sdc = p.p_weighted_sdc;
    weighted_total = p.p_weighted_total;
  }

let merge ~workload_name spec ~n ~seed shards =
  if n <= 0 then invalid_arg "Campaign.merge: n must be positive";
  let shards = List.sort (fun a b -> compare a.lo b.lo) shards in
  let covered =
    List.fold_left
      (fun pos s ->
        if s.lo <> pos then
          invalid_arg
            (Printf.sprintf
               "Campaign.merge: shard gap/overlap at %d (next shard starts \
                at %d)"
               pos s.lo);
        s.hi)
      0 shards
  in
  if covered <> n then
    invalid_arg
      (Printf.sprintf "Campaign.merge: shards cover [0, %d) but n = %d"
         covered n);
  {
    (result_of_profiles ~workload_name spec ~n ~seed
       (List.map profile_of_shard shards))
    with
    experiments = Array.concat (List.map (fun s -> s.s_experiments) shards);
  }

let run ?(keep_experiments = false) ?spacing workload spec ~n ~seed =
  if n <= 0 then invalid_arg "Campaign.run: n must be positive";
  merge ~workload_name:workload.Workload.name spec ~n ~seed
    [ run_shard ~keep_experiments ?spacing workload spec ~seed ~lo:0 ~hi:n ]

let sdc_ci r = Stats.Proportion.wald ~successes:r.sdc ~trials:r.n ()
let sdc_pct r = 100. *. float_of_int r.sdc /. float_of_int r.n

let weighted_sdc_pct r =
  if r.weighted_total <= 0.0 then 0.0
  else 100. *. r.weighted_sdc /. r.weighted_total

let equal_profile (a : profile) (b : profile) = a = b

let equal_result a b =
  let experiment_equal (x : Experiment.t) (y : Experiment.t) =
    x.outcome = y.outcome && x.activated = y.activated
    && x.dyn_count = y.dyn_count
    && String.equal x.output y.output
  in
  String.equal a.workload_name b.workload_name
  && Spec.equal a.spec b.spec && a.n = b.n && a.seed = b.seed
  && a.benign = b.benign && a.detected = b.detected && a.hang = b.hang
  && a.no_output = b.no_output && a.sdc = b.sdc && a.traps = b.traps
  && Stats.Histogram.to_alist a.activation
     = Stats.Histogram.to_alist b.activation
  && a.weighted_sdc = b.weighted_sdc
  && a.weighted_total = b.weighted_total
  && Array.length a.experiments = Array.length b.experiments
  && Array.for_all2 experiment_equal a.experiments b.experiments
