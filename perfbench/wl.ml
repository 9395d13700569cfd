(* The benchmark's workloads: which programs and fault models form the
   grid, how large each cell is, and how the study runs it.  Everything
   goes through the production entry points with the default
   configuration: [Core.Workload.make], [Engine.run_campaign],
   [Engine.Adaptive.run_grid] and [Store]. *)

type size = Full | Small

type t = {
  name : string;
  programs : string list;
  specs : Core.Spec.t list;  (** crossed with every program *)
  n : int;  (** fixed N, or the adaptive cap *)
  target : float option;
      (** [Some hw]: [Engine.Adaptive.run_grid] to Wilson half-width
          [hw]; [None]: fixed-N [Engine.run_campaign] per cell *)
  jobs : int;
  study_store : bool;  (** the study itself writes a fresh on-disk store *)
}

let names = [ "paper-grid"; "nn-domains"; "adaptive-store" ]

let size_of_string = function
  | "full" -> Some Full
  | "small" -> Some Small
  | _ -> None

let size_name = function Full -> "full" | Small -> "small"

let read = Core.Technique.Read
let write = Core.Technique.Write
let fixed w = Core.Win.Fixed w

(* Table I, stratified: single; a win=0 cluster; a short- and a
   long-window cluster, the latter at max-MBF 30. *)
let paper_specs tech =
  [
    Core.Spec.single tech;
    Core.Spec.multi tech ~max_mbf:2 ~win:(fixed 0);
    Core.Spec.multi tech ~max_mbf:3 ~win:(fixed 10);
    Core.Spec.multi tech ~max_mbf:30 ~win:(fixed 100);
  ]

let nn_specs domain =
  [
    Core.Spec.single ~domain read;
    Core.Spec.multi ~domain read ~max_mbf:3 ~win:(fixed 10);
  ]

(* Full sizes hold a study pass to about 1.4 s (paper-grid, ~9.5k
   experiments), 4 s (nn-domains, 800) and 0.8 s (adaptive-store, ~1.7k
   on two domains), so a 30 s run times 6 to 20 passes.  Small sizes run
   in well under a second, for the benchmark's own tests. *)
let make name size =
  match (name, size) with
  | "paper-grid", Full ->
      Some
        {
          name;
          programs = Bench_suite.Registry.names;
          specs = paper_specs read @ paper_specs write;
          n = 400;
          target = Some 0.1;
          jobs = 1;
          study_store = false;
        }
  | "paper-grid", Small ->
      Some
        {
          name;
          programs = [ "crc32"; "qsort" ];
          specs = [ Core.Spec.single read; Core.Spec.multi read ~max_mbf:3 ~win:(fixed 10) ];
          n = 50;
          target = Some 0.2;
          jobs = 1;
          study_store = false;
        }
  | "nn-domains", Full ->
      Some
        {
          name;
          programs = [ "nn"; "nn-large" ];
          specs = nn_specs Core.Domain.Mem @ nn_specs Core.Domain.Code;
          n = 100;
          target = None;
          jobs = 1;
          study_store = false;
        }
  | "nn-domains", Small ->
      Some
        {
          name;
          programs = [ "nn" ];
          specs = [ Core.Spec.single ~domain:Core.Domain.Mem read;
                    Core.Spec.single ~domain:Core.Domain.Code read ];
          n = 25;
          target = None;
          jobs = 1;
          study_store = false;
        }
  | "adaptive-store", Full ->
      Some
        {
          name;
          programs = [ "crc32"; "qsort"; "nn" ];
          specs = List.map (fun domain -> Core.Spec.single ~domain read) Core.Domain.all;
          n = 600;
          target = Some 0.06;
          jobs = 2;
          study_store = true;
        }
  | "adaptive-store", Small ->
      Some
        {
          name;
          programs = [ "crc32" ];
          specs = [ Core.Spec.single read; Core.Spec.single ~domain:Core.Domain.Mem read ];
          n = 100;
          target = Some 0.2;
          jobs = 2;
          study_store = true;
        }
  | _ -> None

let now = Unix.gettimeofday

(* One program's share of set-up, in seconds. *)
type loaded = { w : Core.Workload.t; make_s : float; record_s : float }

let desc name =
  match Bench_suite.Registry.find name with
  | Some d -> d
  | None -> failwith ("unknown program " ^ name)

(* The benchmark's own span around one call into a layer.  A disabled
   tracer costs one atomic load, so the untraced runs keep these. *)
let span name f = Obs.Trace.with_span ("pb." ^ name) f

(* Build and load every program, record its golden-prefix checkpoints.
   The native reference outputs are computed first and not timed: they
   only confirm each golden run. *)
let setup t =
  let descs = List.map desc t.programs in
  let expected = List.map (fun (d : Bench_suite.Desc.t) -> d.reference ()) descs in
  List.map2
    (fun (d : Bench_suite.Desc.t) expected_output ->
      let t0 = now () in
      let w =
        span "workload.make" (fun () ->
            Core.Workload.make ~name:d.name ~expected_output (d.build ()))
      in
      let t1 = now () in
      span "checkpoint.record" (fun () ->
          ignore (Core.Workload.ensure_checkpoints w : Vm.Checkpoint.set option));
      { w; make_s = t1 -. t0; record_s = now () -. t1 })
    descs expected

let cells t ws =
  List.concat_map (fun w -> List.map (fun spec -> (w, spec)) t.specs) ws

let key_of (r : Core.Campaign.result) =
  r.workload_name ^ " " ^ Core.Spec.label r.spec

(* One pass over the grid: merged results in cell order and the number
   of experiments executed. *)
let study ?store ?log t ws ~seed =
  match t.target with
  | Some target ->
      let cells =
        List.map
          (fun (w, spec) ->
            { Engine.Adaptive.c_workload = w; c_spec = spec; c_cap = t.n; c_seed = seed })
          (cells t ws)
      in
      let rs, st =
        span "engine.study" (fun () ->
            Engine.Adaptive.run_grid ~jobs:t.jobs ?store ?log ~target cells)
      in
      (List.map (fun (r : Engine.Adaptive.cell_result) -> r.r_result) rs, st.g_executed)
  | None ->
      let executed = ref 0 in
      span "engine.study" @@ fun () ->
      let rs =
        List.map
          (fun (w, spec) ->
            let r, st =
              Engine.run_campaign_stats ~jobs:t.jobs ?store w spec ~n:t.n ~seed
            in
            executed := !executed + st.experiments_executed;
            r)
          (cells t ws)
      in
      (rs, !executed)
