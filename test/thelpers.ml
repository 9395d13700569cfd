(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Build and load a one-function module. *)
let load_main build_body =
  let m = Ir.Build.create () in
  Ir.Build.func m "main" ~params:[] ~ret:None build_body;
  Vm.Program.load (Ir.Build.finish m)

(* Build, load and run a one-function module in one step. *)
let run_main ?budget build_body =
  Vm.Exec.run ?hooks:None
    ~budget:(Option.value budget ~default:Vm.Exec.golden_budget)
    (load_main build_body)

(* One fault-free run on the seed interpreter with its dynamic read and
   write candidates, counted as the calls of its [pre] and [post] hooks:
   the reference for every candidate total. *)
let seed_cands prog =
  let reads = ref 0 and writes = ref 0 in
  let hooks =
    {
      Vm.Exec.pre = (fun ~dyn:_ _ _ -> incr reads);
      post = (fun ~dyn:_ _ _ -> incr writes);
      at = Vm.Exec.no_hook;
    }
  in
  let r = Vm.Exec.run ~hooks ~budget:Vm.Exec.golden_budget prog in
  (r, !reads, !writes)

(* Little-endian encoders matching the VM's output stream format. *)
let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

let le64_of_float x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.to_string b

let status_testable =
  let pp fmt (s : Vm.Exec.status) =
    Format.pp_print_string fmt
      (match s with
      | Finished -> "finished"
      | Trapped t -> "trapped:" ^ Vm.Trap.to_string t
      | Hung -> "hung")
  in
  Alcotest.testable pp ( = )

(* The reference campaign: experiments [0, n) of [spec] on
   [Experiment.run_oracle], each on its private generator as in
   [Campaign.run], folded into one shard and merged. *)
let oracle_campaign ?(keep_experiments = false) (w : Core.Workload.t) spec ~n
    ~seed =
  let base = Prng.of_seed seed in
  let candidates = Core.Workload.candidates w spec in
  let exps =
    Array.init n (fun i ->
        let inj =
          Core.Injector.create ~spec ~candidates (Prng.split_at base i)
        in
        Core.Experiment.conclude w inj (Core.Experiment.run_oracle w inj))
  in
  Core.Campaign.merge ~workload_name:w.name spec ~n ~seed
    [
      Core.Campaign.shard_of_profile ~lo:0 ~hi:n
        ~experiments:(if keep_experiments then exps else [||])
        (Core.Campaign.profile_of_experiments exps);
    ]

(* Run [f] on a copy of the workload whose checkpoint set is recorded
   every [interval] candidate instructions: a set denser than
   production's puts restores near every possible stack shape.  Callers
   must run their experiments on the workload [f] receives. *)
let with_checkpoints ~interval (w : Core.Workload.t) f =
  let r = Vm.Checkpoint.recorder ~interval in
  let g = Vm.Code.run ~record:r ~budget:Vm.Exec.golden_budget w.code in
  if g.status <> Vm.Exec.Finished then
    Alcotest.fail "with_checkpoints: recording run did not finish";
  f { w with checkpoints = Vm.Checkpoint.finish r }
