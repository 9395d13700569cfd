(* Correctness: every merged cell against a reference result.

   References for the committed seeds live in [refs/] and were produced
   by the seed interpreter with checkpointing off (the [refs]
   subcommand).  For any other seed the reference is the oracle computed
   here, which also runs at the committed seeds and is checked against
   their references: each experiment runs in full ([Experiment.run_raw
   ~checkpoint:false]), one at a time, and the outcomes are folded by
   this file rather than by [Campaign] — no checkpoints, no batching, no
   engine, no adaptive sampler, no store. *)

module J = Store.Jsonx

let result_json (r : Core.Campaign.result) =
  J.Obj
    [
      ("key", J.Str (Wl.key_of r));
      ("n", J.Int r.n);
      ("seed", J.Str (Int64.to_string r.seed));
      ("benign", J.Int r.benign);
      ("detected", J.Int r.detected);
      ("hang", J.Int r.hang);
      ("no_output", J.Int r.no_output);
      ("sdc", J.Int r.sdc);
      ( "traps",
        J.Arr
          (List.map
             (fun (t, c) -> J.Arr [ J.Str (Vm.Trap.to_string t); J.Int c ])
             r.traps) );
      ( "activation",
        J.Arr
          (List.map
             (fun (k, c) -> J.Arr [ J.Int k; J.Int c ])
             (Stats.Histogram.to_alist r.activation)) );
      ("weighted_sdc", J.Float r.weighted_sdc);
      ("weighted_total", J.Float r.weighted_total);
    ]

let digest rs =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun r -> J.to_string (result_json r)) rs)))

(* Rebuild a campaign result from its reference record, so the
   comparison is [Campaign.equal_result] itself. *)
let result_of_json ~workload_name ~spec j =
  let int k = Option.get (Option.bind (J.mem k j) J.to_int) in
  let flt k = Option.get (Option.bind (J.mem k j) J.to_float) in
  let list k = Option.get (Option.bind (J.mem k j) J.to_list) in
  let pair = function J.Arr [ a; b ] -> (a, b) | _ -> failwith "refs: bad pair" in
  let traps =
    List.map
      (fun p ->
        let t, c = pair p in
        ( Option.get (Vm.Trap.of_string (Option.get (J.to_str t))),
          Option.get (J.to_int c) ))
      (list "traps")
  in
  let activation = Stats.Histogram.create () in
  List.iter
    (fun p ->
      let k, c = pair p in
      Stats.Histogram.add_count activation (Option.get (J.to_int k)) (Option.get (J.to_int c)))
    (list "activation");
  {
    Core.Campaign.workload_name;
    spec;
    n = int "n";
    seed = Int64.of_string (Option.get (Option.bind (J.mem "seed" j) J.to_str));
    benign = int "benign";
    detected = int "detected";
    hang = int "hang";
    no_output = int "no_output";
    sdc = int "sdc";
    traps;
    activation;
    experiments = [||];
    weighted_sdc = flt "weighted_sdc";
    weighted_total = flt "weighted_total";
  }

let refs_path ~dir (t : Wl.t) ~size ~seed =
  Filename.concat dir
    (Printf.sprintf "%s-%s-%Ld.json" t.name (Wl.size_name size) seed)

let write_refs path rs =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      output_string oc (J.to_string (result_json r));
      output_string oc (if i = List.length rs - 1 then "\n" else ",\n"))
    rs;
  output_string oc "]\n";
  close_out oc

(* Key -> reference JSON, or [None] when no file exists for this seed. *)
let read_refs path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string s with
    | Ok (J.Arr l) ->
        Some
          (List.map
             (fun j -> (Option.get (Option.bind (J.mem "key" j) J.to_str), j))
             l)
    | Ok _ | Error _ -> failwith ("refs: cannot parse " ^ path)

(* Fold experiments [lo..hi-1] of a cell, each executed in full; also
   the sum of their dynamic lengths. *)
let fold (w : Core.Workload.t) spec ~seed ~lo ~hi =
  let base = Prng.of_seed seed in
  let candidates = Core.Workload.candidates w spec in
  let count = Array.make 5 0 in
  let traps = Hashtbl.create 8 in
  let activation = Stats.Histogram.create () in
  let wsdc = ref 0.0 and wtotal = ref 0.0 and dyn = ref 0 and suffix = ref 0 in
  for i = lo to hi - 1 do
    let inj = Core.Injector.create ~spec ~candidates (Prng.split_at base i) in
    let e =
      Core.Experiment.conclude w inj (Core.Experiment.run_raw ~checkpoint:false w inj)
    in
    dyn := !dyn + e.dyn_count;
    (match e.first with Some f -> suffix := !suffix + (e.dyn_count - f.inj_dyn) | None -> ());
    let slot =
      match e.outcome with
      | Benign -> 0
      | Detected trap ->
          Hashtbl.replace traps trap
            (1 + Option.value ~default:0 (Hashtbl.find_opt traps trap));
          1
      | Hang -> 2
      | No_output -> 3
      | Sdc -> 4
    in
    count.(slot) <- count.(slot) + 1;
    Stats.Histogram.add activation e.activated;
    match e.first with
    | Some inj ->
        let wt = float_of_int inj.inj_weight in
        wtotal := !wtotal +. wt;
        if slot = 4 then wsdc := !wsdc +. wt
    | None -> ()
  done;
  ( {
    Core.Campaign.p_exps = hi - lo;
    p_benign = count.(0);
    p_detected = count.(1);
    p_hang = count.(2);
    p_no_output = count.(3);
    p_sdc = count.(4);
    p_traps = List.sort compare (Hashtbl.fold (fun t c l -> (t, c) :: l) traps []);
    p_activation = Stats.Histogram.to_alist activation;
    p_weighted_sdc = !wsdc;
    p_weighted_total = !wtotal;
  },
    (!dyn, !suffix) )

(* The oracle for every cell of a finished pass, at that cell's [n].
   With [store], each shard's fold is also appended under the key the
   study's entry points use, which is how the resume passes of a
   workload whose study keeps no store get a store to read back. *)
let oracle ?store ~cap ws (rs : Core.Campaign.result list) =
  let shard_size = (Core.Config.of_env ()).shard_size in
  let dyn = ref 0 and suffix = ref 0 in
  let results =
  List.map
    (fun (r : Core.Campaign.result) ->
      let w = List.find (fun (w : Core.Workload.t) -> w.name = r.workload_name) ws in
      let profiles =
        List.map
          (fun (lo, hi) ->
            let p, (d, sf) = fold w r.spec ~seed:r.seed ~lo ~hi in
            dyn := !dyn + d;
            suffix := !suffix + sf;
            Option.iter
              (fun st ->
                Store.add st
                  (Store.key ~program:w.name ~digest:w.digest ~spec:r.spec ~n:cap
                     ~seed:r.seed ~lo ~hi)
                  {
                    Core.Campaign.lo;
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
                    s_experiments = [||];
                  })
              store;
            p)
          (Engine.shards_of ~n:r.n ~shard_size)
      in
      Core.Campaign.result_of_profiles ~workload_name:w.name r.spec ~n:r.n ~seed:r.seed
        profiles)
    rs
  in
  (results, (!dyn, !suffix))

(* The expected result of every cell: the committed references when
   they exist, else the oracle's results. *)
let expected ~refs ~oracle (first : Core.Campaign.result list) =
  match refs with
  | Some l ->
      List.filter_map
        (fun (r : Core.Campaign.result) ->
          let key = Wl.key_of r in
          Option.map
            (fun j -> (key, result_of_json ~workload_name:r.workload_name ~spec:r.spec j))
            (List.assoc_opt key l))
        first
  | None -> List.map (fun r -> (Wl.key_of r, r)) oracle

(* Keys of the cells whose merged result differs from the expected one,
   or that have none. *)
let failures expected rs =
  List.filter_map
    (fun (r : Core.Campaign.result) ->
      match List.assoc_opt (Wl.key_of r) expected with
      | Some e when Core.Campaign.equal_result e r -> None
      | Some _ | None -> Some (Wl.key_of r))
    rs
