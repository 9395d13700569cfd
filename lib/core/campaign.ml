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

let sort_traps traps = List.sort compare traps

(* Shared outcome accumulator behind [run_shard] and [run_profile]: both
   classify the same experiment stream, only the index sets differ. *)
type acc = {
  mutable a_exps : int;
  mutable a_benign : int;
  mutable a_detected : int;
  mutable a_hang : int;
  mutable a_no_output : int;
  mutable a_sdc : int;
  a_traps : (Vm.Trap.t, int) Hashtbl.t;
  a_activation : Stats.Histogram.t;
  mutable a_weighted_sdc : float;
  mutable a_weighted_total : float;
}

let acc_create () =
  {
    a_exps = 0;
    a_benign = 0;
    a_detected = 0;
    a_hang = 0;
    a_no_output = 0;
    a_sdc = 0;
    a_traps = Hashtbl.create 8;
    a_activation = Stats.Histogram.create ();
    a_weighted_sdc = 0.0;
    a_weighted_total = 0.0;
  }

let acc_add acc (e : Experiment.t) =
  acc.a_exps <- acc.a_exps + 1;
  (match e.outcome with
  | Benign -> acc.a_benign <- acc.a_benign + 1
  | Detected trap ->
      acc.a_detected <- acc.a_detected + 1;
      Hashtbl.replace acc.a_traps trap
        (1 + Option.value ~default:0 (Hashtbl.find_opt acc.a_traps trap))
  | Hang -> acc.a_hang <- acc.a_hang + 1
  | No_output -> acc.a_no_output <- acc.a_no_output + 1
  | Sdc -> acc.a_sdc <- acc.a_sdc + 1);
  Stats.Histogram.add acc.a_activation e.activated;
  match e.first with
  | Some inj ->
      let w = float_of_int inj.inj_weight in
      acc.a_weighted_total <- acc.a_weighted_total +. w;
      if Outcome.is_sdc e.outcome then
        acc.a_weighted_sdc <- acc.a_weighted_sdc +. w
  | None -> ()

let acc_traps acc =
  sort_traps (Hashtbl.fold (fun t c l -> (t, c) :: l) acc.a_traps [])

let acc_profile acc =
  {
    p_exps = acc.a_exps;
    p_benign = acc.a_benign;
    p_detected = acc.a_detected;
    p_hang = acc.a_hang;
    p_no_output = acc.a_no_output;
    p_sdc = acc.a_sdc;
    p_traps = acc_traps acc;
    p_activation = Stats.Histogram.to_alist acc.a_activation;
    p_weighted_sdc = acc.a_weighted_sdc;
    p_weighted_total = acc.a_weighted_total;
  }

let empty_profile = acc_profile (acc_create ())

(* Execute a set of campaign indices; result [k] is experiment
   [indices.(k)], on its private generator. *)
let run_indices ?spacing workload spec ~seed ~indices =
  let base = Prng.of_seed seed in
  Array.map
    (fun i -> Experiment.run ?spacing workload spec (Prng.split_at base i))
    indices

let run_shard ?(keep_experiments = false) ?spacing workload spec ~seed ~lo ~hi =
  if lo < 0 || hi <= lo then invalid_arg "Campaign.run_shard: bad range";
  let acc = acc_create () in
  let indices = Array.init (hi - lo) (fun k -> lo + k) in
  let exps = run_indices ?spacing workload spec ~seed ~indices in
  Array.iter (acc_add acc) exps;
  let s_experiments = if keep_experiments then exps else [||] in
  {
    lo;
    hi;
    s_benign = acc.a_benign;
    s_detected = acc.a_detected;
    s_hang = acc.a_hang;
    s_no_output = acc.a_no_output;
    s_sdc = acc.a_sdc;
    s_traps = acc_traps acc;
    s_activation = Stats.Histogram.to_alist acc.a_activation;
    s_weighted_sdc = acc.a_weighted_sdc;
    s_weighted_total = acc.a_weighted_total;
    s_experiments;
  }

let run_profile ?spacing workload spec ~seed ~indices =
  Array.iter
    (fun i ->
      if i < 0 then invalid_arg "Campaign.run_profile: negative index")
    indices;
  let acc = acc_create () in
  Array.iter (acc_add acc) (run_indices ?spacing workload spec ~seed ~indices);
  acc_profile acc

let merge_profiles a b =
  let traps = Hashtbl.create 8 in
  let bump (t, c) =
    Hashtbl.replace traps t
      (c + Option.value ~default:0 (Hashtbl.find_opt traps t))
  in
  List.iter bump a.p_traps;
  List.iter bump b.p_traps;
  let activation = Stats.Histogram.create () in
  List.iter
    (fun (k, c) -> Stats.Histogram.add_count activation k c)
    (a.p_activation @ b.p_activation);
  {
    p_exps = a.p_exps + b.p_exps;
    p_benign = a.p_benign + b.p_benign;
    p_detected = a.p_detected + b.p_detected;
    p_hang = a.p_hang + b.p_hang;
    p_no_output = a.p_no_output + b.p_no_output;
    p_sdc = a.p_sdc + b.p_sdc;
    p_traps = sort_traps (Hashtbl.fold (fun t c l -> (t, c) :: l) traps []);
    p_activation = Stats.Histogram.to_alist activation;
    p_weighted_sdc = a.p_weighted_sdc +. b.p_weighted_sdc;
    p_weighted_total = a.p_weighted_total +. b.p_weighted_total;
  }

let result_of_profiles ~workload_name spec ~n ~seed profiles =
  if n <= 0 then invalid_arg "Campaign.result_of_profiles: n must be positive";
  let total = List.fold_left (fun acc p -> acc + p.p_exps) 0 profiles in
  if total <> n then
    invalid_arg
      (Printf.sprintf
         "Campaign.result_of_profiles: profiles cover %d experiments but n \
          = %d"
         total n);
  let p = List.fold_left merge_profiles empty_profile profiles in
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
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  let sumf f = List.fold_left (fun acc s -> acc +. f s) 0.0 shards in
  let traps = Hashtbl.create 8 in
  let activation = Stats.Histogram.create () in
  List.iter
    (fun s ->
      List.iter
        (fun (t, c) ->
          Hashtbl.replace traps t
            (c + Option.value ~default:0 (Hashtbl.find_opt traps t)))
        s.s_traps;
      List.iter
        (fun (k, c) -> Stats.Histogram.add_count activation k c)
        s.s_activation)
    shards;
  {
    workload_name;
    spec;
    n;
    seed;
    benign = sum (fun s -> s.s_benign);
    detected = sum (fun s -> s.s_detected);
    hang = sum (fun s -> s.s_hang);
    no_output = sum (fun s -> s.s_no_output);
    sdc = sum (fun s -> s.s_sdc);
    traps = sort_traps (Hashtbl.fold (fun t c acc -> (t, c) :: acc) traps []);
    activation;
    experiments = Array.concat (List.map (fun s -> s.s_experiments) shards);
    weighted_sdc = sumf (fun s -> s.s_weighted_sdc);
    weighted_total = sumf (fun s -> s.s_weighted_total);
  }

let run ?(keep_experiments = false) ?spacing workload spec ~n ~seed =
  if n <= 0 then invalid_arg "Campaign.run: n must be positive";
  merge ~workload_name:workload.Workload.name spec ~n ~seed
    [ run_shard ~keep_experiments ?spacing workload spec ~seed ~lo:0 ~hi:n ]

let sdc_ci r = Stats.Proportion.wald ~successes:r.sdc ~trials:r.n ()

let detection_ci r =
  Stats.Proportion.wald ~successes:(r.detected + r.hang + r.no_output) ~trials:r.n ()

let benign_ci r = Stats.Proportion.wald ~successes:r.benign ~trials:r.n ()
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
