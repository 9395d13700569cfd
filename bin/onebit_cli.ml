(* Command-line interface to the fault-injection library.

   onebit list                      -- programs and candidate counts
   onebit dump PROGRAM              -- print a program's IR
   onebit golden PROGRAM            -- fault-free run summary
   onebit campaign PROGRAM ...      -- run one campaign (-j N, --store DIR)
   onebit plan PROGRAM ...          -- run the 91-campaign plan (CSV)
   onebit experiment PROGRAM ...    -- replay one experiment verbosely
   onebit digests PROGRAM|FILE      -- per-function digests and summaries
   onebit diff-campaign OLD NEW     -- per-cell delta between two CSVs
   onebit lint PROGRAM|FILE         -- dataflow linter (exit 1 on findings)
   onebit engine status|gc          -- inspect / compact a result store
   onebit serve PROGRAM... ...      -- coordinate a campaign fleet
   onebit work --connect ADDR       -- serve shards as a fleet worker *)

open Cmdliner

let find_entry name =
  match Bench_suite.Registry.find name with
  | Some e -> e
  | None ->
      Printf.eprintf "unknown program %s; try `onebit list`\n" name;
      exit 2

let load_workload name =
  let e = find_entry name in
  Core.Workload.make ~name:e.name ~expected_output:(e.reference ()) (e.build ())

(* ---- shared arguments ---- *)

let program_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM")

let tech_conv =
  Arg.conv
    ( (fun s ->
        match Core.Technique.of_string s with
        | Some t -> Ok t
        | None -> Error (`Msg "expected `read' or `write'")),
      fun fmt t -> Format.pp_print_string fmt (Core.Technique.to_string t) )

let technique_arg =
  Arg.(
    value
    & opt tech_conv Core.Technique.Read
    & info [ "t"; "technique" ] ~docv:"TECH"
        ~doc:"Fault-injection technique: $(b,read) or $(b,write).")

let domain_conv =
  Arg.conv
    ( (fun s ->
        match Core.Domain.of_string s with
        | Some d -> Ok d
        | None -> Error (`Msg "expected `reg', `mem' or `code'")),
      fun fmt d -> Format.pp_print_string fmt (Core.Domain.to_string d) )

let domain_arg =
  Arg.(
    value
    & opt (some domain_conv) None
    & info [ "d"; "domain" ] ~docv:"DOMAIN"
        ~doc:
          "Fault domain: $(b,reg) flips a register operand (the paper's \
           model and the default), $(b,mem) flips a bit of a live memory \
           byte between dynamic instructions, $(b,code) flips a bit of a \
           stored-program instruction field.  Overrides $(b,ONEBIT_DOMAIN).")

let win_conv =
  Arg.conv
    ( (fun s ->
        match String.split_on_char ':' s with
        | [ v ] -> (
            match int_of_string_opt v with
            | Some w when w >= 0 -> Ok (Core.Win.Fixed w)
            | _ -> Error (`Msg "expected N or rnd:LO-HI"))
        | [ "rnd"; range ] -> (
            match String.split_on_char '-' range with
            | [ lo; hi ] -> (
                match (int_of_string_opt lo, int_of_string_opt hi) with
                | Some lo, Some hi when 0 <= lo && lo <= hi ->
                    Ok (Core.Win.Rnd (lo, hi))
                | _ -> Error (`Msg "expected rnd:LO-HI"))
            | _ -> Error (`Msg "expected rnd:LO-HI"))
        | _ -> Error (`Msg "expected N or rnd:LO-HI")),
      fun fmt w -> Format.pp_print_string fmt (Core.Win.to_string w) )

let win_arg =
  Arg.(
    value
    & opt win_conv (Core.Win.Fixed 0)
    & info [ "w"; "win" ] ~docv:"WIN"
        ~doc:
          "Dynamic window size between injections: a number, or \
           $(b,rnd:LO-HI) for a uniform draw per injection.")

let mbf_arg =
  Arg.(
    value & opt int 1
    & info [ "m"; "max-mbf" ] ~docv:"N"
        ~doc:"Maximum number of bit-flips per experiment (1 = single-bit).")

let n_arg =
  Arg.(
    value & opt int 1000
    & info [ "n" ] ~docv:"N" ~doc:"Number of experiments in the campaign.")

let seed_arg =
  Arg.(
    value & opt int64 20170626L
    & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed for the campaign PRNG.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for campaign execution (0 = one per core; \
           overrides $(b,ONEBIT_JOBS)).  Results are bit-identical at any \
           value.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Crash-tolerant result store directory (overrides \
           $(b,ONEBIT_STORE)): finished shards are appended durably as \
           they complete, and shards already present are not re-executed, \
           so an interrupted run resumes where it stopped and separate \
           runs reuse each other's work.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable metrics collection and write a Prometheus-style text \
           dump to $(docv) at exit ($(b,-) for stderr; overrides \
           $(b,ONEBIT_METRICS)).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write the spans as JSONL to $(docv) at \
           exit ($(b,-) for stderr; overrides $(b,ONEBIT_TRACE)).")

(* Flag > environment > default: layer the CLI flags over the
   environment-resolved configuration.  The environment sinks are armed
   once at startup (see the main entry point); flag-given sinks are
   added here. *)
let resolve_config ?jobs ?store ?metrics ?trace ?incremental ?coord ?lease_ttl
    ?domain ?adaptive ?ci_target () =
  let cfg =
    Core.Config.override ?jobs ?store ?metrics ?trace ?incremental ?coord
      ?lease_ttl ?domain ?adaptive ?ci_target (Core.Config.of_env ())
  in
  Obs.install_sink ?metrics ?trace ();
  cfg

let with_store store_dir f =
  match store_dir with
  | None -> f None
  | Some dir ->
      let st = Store.open_dir dir in
      Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f (Some st))

(* The --domain flag layers over ONEBIT_DOMAIN, like every other knob. *)
let spec_of ?domain technique max_mbf win =
  let domain =
    match domain with
    | Some d -> d
    | None -> (Core.Config.of_env ()).Core.Config.domain
  in
  if max_mbf <= 1 then Core.Spec.single ~domain technique
  else Core.Spec.multi ~domain technique ~max_mbf ~win

(* Injection locations are domain-specific: a register number, an arena
   address, or a stored-instruction flip-site ordinal. *)
let loc_label (j : Core.Injector.injection) =
  match j.inj_domain with
  | Core.Domain.Reg -> Printf.sprintf "reg=%%%d" j.inj_loc
  | Core.Domain.Mem -> Printf.sprintf "addr=%d" j.inj_loc
  | Core.Domain.Code -> Printf.sprintf "site=%d" j.inj_loc

let incremental_arg =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Compose the campaign from cached per-function outcome profiles \
           (requires a result store; see also $(b,ONEBIT_INCREMENTAL)).  \
           Every function whose identity digest has no valid cached \
           profile is re-injected, and only those — after editing one \
           function, only its share of the experiments re-runs — and the \
           composed result is bit-identical to a full run.  A mem or code \
           campaign is not function-local and runs in full.  A reuse \
           summary (reused and re-run experiments) is printed to stderr.")

let adaptive_arg =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "CI-targeted sequential sampling (see also $(b,ONEBIT_ADAPTIVE)): \
           run the campaign in rounds, stop as soon as the SDC Wilson 95% \
           CI half-width reaches the target ($(b,--ci-target)), and treat \
           $(b,--n) as the cap.  Every experiment run is the one the \
           fixed-N campaign would run, so the result is byte-identical to \
           a fixed-N campaign of the stopping N.")

let ci_target_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "ci-target" ] ~docv:"HW"
        ~doc:
          "Adaptive stopping target: the Wilson 95% CI half-width, as a \
           proportion in (0, 1), at which a cell stops sampling (overrides \
           $(b,ONEBIT_CI); default 0.02).")

(* The one choice between the campaign modes, shared by [campaign] and
   [run-ir] so both honour the same configuration: adaptive rounds ([n]
   is the cap), incremental composition (which needs a store to cache
   its profiles), or a fixed-N campaign.  Adaptive and incremental
   exclude each other.  Summaries go to stderr. *)
let run_configured (cfg : Core.Config.t) w spec ~n ~seed =
  if cfg.adaptive && cfg.incremental then begin
    Printf.eprintf "--adaptive and --incremental are mutually exclusive\n";
    exit 2
  end;
  with_store cfg.store (fun store ->
      if cfg.adaptive then begin
        let cell =
          {
            Engine.Adaptive.c_workload = w;
            c_spec = spec;
            c_cap = n;
            c_seed = seed;
          }
        in
        let results, stats =
          Engine.Adaptive.run_grid ~jobs:cfg.jobs ?store
            ~log:(fun line -> Printf.eprintf "%s\n%!" line)
            ~target:cfg.ci_target [ cell ]
        in
        let cr = List.hd results in
        Printf.eprintf
          "adaptive: closed at n=%d of cap %d (%s, half-width target %g) \
           after %d rounds; %d experiments saved, %d from store\n"
          cr.r_closed_at n
          (if cr.r_met then "CI target met" else "cap exhausted")
          cfg.ci_target stats.g_rounds stats.g_saved stats.g_from_store;
        cr.r_result
      end
      else if cfg.incremental then begin
        let store =
          match store with
          | Some st -> st
          | None ->
              Printf.eprintf
                "--incremental requires a result store; pass --store DIR or \
                 set ONEBIT_STORE\n";
              exit 2
        in
        let r, s =
          Engine.Incremental.run ~jobs:cfg.jobs ~store w spec ~n ~seed
        in
        Printf.eprintf
          "incremental: reused %d experiments (%d/%d functions), re-ran %d \
           experiments (%d functions)\n"
          s.exps_reused s.funcs_reused s.funcs_total s.exps_recomputed
          s.funcs_recomputed;
        r
      end
      else
        let progress = Engine.Progress.create () in
        Engine.Progress.with_reporter progress (fun () ->
            Engine.run_campaign ~jobs:cfg.jobs ?store ~progress w spec ~n
              ~seed))

(* ---- list ---- *)

let list_cmd =
  let run () =
    let body =
      List.map
        (fun (e : Bench_suite.Desc.t) ->
          let w = load_workload e.name in
          [
            e.name;
            e.suite;
            e.package;
            string_of_int w.golden.dyn_count;
            string_of_int w.checkpoints.read_cands;
            string_of_int w.checkpoints.write_cands;
          ])
        Bench_suite.Registry.all
    in
    print_string
      (Report.Table.render
         ~header:
           [ "program"; "suite"; "package"; "dyn-instrs"; "cand-read"; "cand-write" ]
         body)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmark programs and their candidate counts.")
    Term.(const run $ const ())

(* ---- dump ---- *)

let dump_cmd =
  let run program =
    let e = find_entry program in
    print_string (Ir.Pp.modl (e.build ()))
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a program's intermediate representation.")
    Term.(const run $ program_arg)

(* ---- golden ---- *)

let golden_cmd =
  let run program =
    let w = load_workload program in
    Printf.printf "program:       %s\n" w.name;
    Printf.printf "status:        finished (output matches native reference)\n";
    Printf.printf "dyn instrs:    %d\n" w.golden.dyn_count;
    Printf.printf "read cands:    %d\n" w.checkpoints.read_cands;
    Printf.printf "write cands:   %d\n" w.checkpoints.write_cands;
    Printf.printf "output bytes:  %d\n" (String.length w.golden.output);
    Printf.printf "hang budget:   %d\n" w.budget
  in
  Cmd.v
    (Cmd.info "golden" ~doc:"Run the fault-free (golden) execution.")
    Term.(const run $ program_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let run program domain technique max_mbf win n seed csv jobs store_dir
      metrics trace incremental adaptive ci_target =
    let cfg =
      resolve_config ?jobs ?store:store_dir ?metrics ?trace ?domain
        ?incremental:(if incremental then Some true else None)
        ?adaptive:(if adaptive then Some true else None)
        ?ci_target ()
    in
    let w = load_workload program in
    let spec = spec_of ~domain:cfg.Core.Config.domain technique max_mbf win in
    let r = run_configured cfg w spec ~n ~seed in
    if csv then (
      print_endline Core.Csv.header;
      print_endline (Core.Csv.row r))
    else begin
      let ci = Core.Campaign.sdc_ci r in
      Printf.printf "campaign:   %s on %s (n=%d, seed=%Ld)\n"
        (Core.Spec.label spec) program r.n seed;
      Printf.printf "benign:     %d\n" r.benign;
      Printf.printf "detected:   %d" r.detected;
      if r.traps <> [] then
        Printf.printf "  (%s)"
          (String.concat ", "
             (List.map
                (fun (t, c) -> Printf.sprintf "%s:%d" (Vm.Trap.to_string t) c)
                r.traps));
      print_newline ();
      Printf.printf "hang:       %d\n" r.hang;
      Printf.printf "no-output:  %d\n" r.no_output;
      Printf.printf "sdc:        %d  (%.2f%% ±%.2f)\n" r.sdc
        (Core.Campaign.sdc_pct r)
        (100. *. Stats.Proportion.half_width ci);
      Printf.printf "activated:  %s\n"
        (String.concat ", "
           (List.map
              (fun (k, c) -> Printf.sprintf "%d->%d" k c)
              (Stats.Histogram.to_alist r.activation)))
    end
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit a CSV row instead of text.")
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run one fault-injection campaign.")
    Term.(
      const run $ program_arg $ domain_arg $ technique_arg $ mbf_arg $ win_arg
      $ n_arg $ seed_arg $ csv_arg $ jobs_arg $ store_arg $ metrics_arg
      $ trace_arg $ incremental_arg $ adaptive_arg $ ci_target_arg)

(* ---- plan ---- *)

let plan_cmd =
  let run program n seed both technique domain jobs store_dir metrics trace =
    let cfg =
      resolve_config ?jobs ?store:store_dir ?metrics ?trace ?domain ()
    in
    let w = load_workload program in
    let specs =
      (if both then Core.Table1.all_specs else Core.Table1.specs technique)
      |> List.map (fun (s : Core.Spec.t) ->
             { s with domain = cfg.Core.Config.domain })
    in
    with_store cfg.Core.Config.store (fun store ->
        let progress = Engine.Progress.create () in
        Engine.Progress.with_reporter progress (fun () ->
            print_endline Core.Csv.header;
            List.iter
              (fun spec ->
                let r =
                  Engine.run_campaign ~jobs:cfg.Core.Config.jobs ?store
                    ~progress w spec ~n ~seed
                in
                print_endline (Core.Csv.row r))
              specs))
  in
  let both_arg =
    Arg.(
      value & flag
      & info [ "both" ] ~doc:"Run both techniques (182 campaigns).")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Run the paper's campaign plan for one program (91 campaigns per \
          technique), emitting CSV.")
    Term.(
      const run $ program_arg $ n_arg $ seed_arg $ both_arg $ technique_arg
      $ domain_arg $ jobs_arg $ store_arg $ metrics_arg $ trace_arg)

(* ---- experiment ---- *)

let experiment_cmd =
  let run program domain technique max_mbf win index seed =
    let w = load_workload program in
    let spec = spec_of ?domain technique max_mbf win in
    let base = Prng.of_seed seed in
    let rng = Prng.split_at base index in
    (* Re-run with an inspectable injector. *)
    let candidates = Core.Workload.candidates w spec in
    let inj = Core.Injector.create ~spec ~candidates rng in
    (* The process runs this one experiment, so the exit counters' change
       around it is its own early exit, if it took one. *)
    let e0 = Vm.Code.exit_stats () in
    let res = Core.Experiment.run_raw w inj in
    let e1 = Vm.Code.exit_stats () in
    let outcome = Core.Outcome.classify ~golden_output:w.golden.output res in
    let exit_kind, skipped =
      if e1.golden_exits > e0.golden_exits then
        ("golden", e1.golden_skipped - e0.golden_skipped)
      else if e1.shifted_exits > e0.shifted_exits then
        ("shifted", e1.shifted_skipped - e0.shifted_skipped)
      else if e1.cycle_exits > e0.cycle_exits then
        ("cycle", e1.cycle_skipped - e0.cycle_skipped)
      else ("none", 0)
    in
    Printf.printf "experiment %d of %s on %s\n" index (Core.Spec.label spec)
      program;
    Printf.printf "backend:    %s\n"
      (Core.Config.backend_name (Core.Config.active_backend ()));
    Printf.printf "domain:     %s\n"
      (Core.Domain.to_string spec.Core.Spec.domain);
    Printf.printf "outcome:    %s\n" (Core.Outcome.to_string outcome);
    Printf.printf "dyn count:  %d (golden %d)\n" res.dyn_count
      w.golden.dyn_count;
    Printf.printf "exit:       %s (%d instructions skipped)\n" exit_kind
      skipped;
    Printf.printf "activated:  %d of %d\n"
      (Core.Injector.activated inj)
      max_mbf;
    List.iteri
      (fun i (inj : Core.Injector.injection) ->
        Printf.printf "  flip %d: dyn=%d cand=%d %s slot=%d bit=%d\n" i
          inj.inj_dyn inj.inj_cand (loc_label inj) inj.inj_slot inj.inj_bit)
      (Core.Injector.injections inj)
  in
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "i"; "index" ] ~docv:"I"
          ~doc:"Experiment index within the campaign stream.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Replay a single experiment and show each injection.")
    Term.(
      const run $ program_arg $ domain_arg $ technique_arg $ mbf_arg $ win_arg
      $ index_arg $ seed_arg)

(* ---- reproduce ---- *)

let reproduce_cmd =
  let run program domain technique max_mbf win n seed index =
    if index < 0 || index >= n then begin
      Printf.eprintf "index %d out of range (campaign has n=%d experiments)\n"
        index n;
      exit 2
    end;
    let w = load_workload program in
    let spec = spec_of ?domain technique max_mbf win in
    (* The campaign's own record of experiment [index] ... *)
    let r = Core.Campaign.run ~keep_experiments:true w spec ~n ~seed in
    let stored = r.experiments.(index) in
    (* ... and two independent replays from the same (seed, index), both
       from the top and to the end, so every instruction they report was
       actually re-executed: production's path in full, and the seed
       interpreter, the reference oracle. *)
    let candidates = Core.Workload.candidates w spec in
    let replay exec =
      let inj =
        Core.Injector.create ~spec ~candidates
          (Prng.split_at (Prng.of_seed seed) index)
      in
      (exec w inj, inj)
    in
    let ((res, inj) as full) =
      replay (Core.Experiment.run_raw ~checkpoint:false)
    in
    let oracle = replay Core.Experiment.run_oracle in
    let outcome_of res =
      Core.Outcome.classify ~golden_output:w.golden.output res
    in
    Printf.printf "reproduce %d of %s on %s (n=%d, seed=%Ld)\n" index
      (Core.Spec.label spec) program n seed;
    Printf.printf "domain:     %s\n"
      (Core.Domain.to_string spec.Core.Spec.domain);
    Printf.printf "outcome:    %s\n" (Core.Outcome.to_string (outcome_of res));
    Printf.printf "dyn count:  %d (golden %d)\n" res.dyn_count
      w.golden.dyn_count;
    Printf.printf "activated:  %d of %d\n" (Core.Injector.activated inj)
      max_mbf;
    List.iteri
      (fun i (j : Core.Injector.injection) ->
        Printf.printf "  flip %d: dyn=%d cand=%d %s slot=%d bit=%d\n" i
          j.inj_dyn j.inj_cand (loc_label j) j.inj_slot j.inj_bit)
      (Core.Injector.injections inj);
    let injection_equal (a : Core.Injector.injection)
        (b : Core.Injector.injection) =
      Core.Domain.equal a.inj_domain b.inj_domain
      && a.inj_dyn = b.inj_dyn && a.inj_cand = b.inj_cand
      && a.inj_loc = b.inj_loc && a.inj_ty = b.inj_ty
      && a.inj_slot = b.inj_slot && a.inj_bit = b.inj_bit
      && a.inj_weight = b.inj_weight
    in
    let mismatches ((res : Vm.Exec.result), inj) =
      List.filter_map
        (fun (what, ok) -> if ok then None else Some what)
        [
          (* every injection must land in the spec's fault domain *)
          ( "domain",
            List.for_all
              (fun (j : Core.Injector.injection) ->
                Core.Domain.equal j.inj_domain spec.Core.Spec.domain)
              (Core.Injector.injections inj) );
          ("outcome", stored.outcome = outcome_of res);
          ("activated", stored.activated = Core.Injector.activated inj);
          ("dyn count", stored.dyn_count = res.dyn_count);
          ("output", String.equal stored.output res.output);
          ( "first injection",
            match (stored.first, Core.Injector.first_injection inj) with
            | None, None -> true
            | Some a, Some b -> injection_equal a b
            | _ -> false );
        ]
    in
    let verdicts =
      [
        ( Printf.sprintf
            "%s, full execution (checkpoint restore and early exits \
             bypassed)"
            (Core.Config.backend_name (Core.Config.active_backend ())),
          mismatches full );
        ("seed interpreter, the reference oracle", mismatches oracle);
      ]
    in
    List.iter
      (fun (how, bad) ->
        Printf.printf "replay:     %s: %s\n" how
          (if bad = [] then "matches"
           else "DIVERGES (" ^ String.concat ", " bad ^ ")"))
      verdicts;
    if List.for_all (fun (_, bad) -> bad = []) verdicts then
      print_endline "both replays match the stored campaign record"
    else begin
      Printf.eprintf "replay DIVERGES from the stored campaign record\n";
      exit 1
    end
  in
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "i"; "index" ] ~docv:"I"
          ~doc:"Experiment index within the campaign stream.")
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Re-run one experiment of a campaign twice, in full on the \
          production path and on the seed interpreter (the reference \
          oracle), and assert that both replays match the campaign's stored \
          record exactly (outcome, activation count, first injection, \
          dynamic length, output) and that every injection landed in the \
          requested fault domain.  Both replays run from the top, never \
          from a golden-prefix checkpoint, and to their end, never stopping \
          early.  Prints the replayed experiment and each replay's verdict; \
          exits 1 unless both match.")
    Term.(
      const run $ program_arg $ domain_arg $ technique_arg $ mbf_arg $ win_arg
      $ n_arg $ seed_arg $ index_arg)

(* ---- run-ir ---- *)

let run_ir_cmd =
  let run file domain technique max_mbf win n seed csv jobs store_dir metrics
      incremental =
    let cfg =
      resolve_config ?jobs ?store:store_dir ?metrics ?domain
        ?incremental:(if incremental then Some true else None)
        ()
    in
    let text = In_channel.with_open_text file In_channel.input_all in
    let m =
      match Ir.Parse.modl text with
      | Ok m -> m
      | Error msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 1
    in
    let w = Core.Workload.make ~name:(Filename.basename file) m in
    if not csv then
      Printf.printf
        "golden: %d dynamic instructions, %d output bytes, %d/%d candidates \
         (read/write)\n"
        w.golden.dyn_count
        (String.length w.golden.output)
        w.checkpoints.read_cands w.checkpoints.write_cands;
    if n > 0 then begin
      let spec = spec_of ~domain:cfg.Core.Config.domain technique max_mbf win in
      let r = run_configured cfg w spec ~n ~seed in
      if csv then begin
        print_endline Core.Csv.header;
        print_endline (Core.Csv.row r)
      end
      else begin
        Printf.printf "%s over %d experiments:\n" (Core.Spec.label spec) r.n;
        Printf.printf
          "  benign=%d detected=%d hang=%d no-output=%d sdc=%d (%.1f%%)\n"
          r.benign r.detected r.hang r.no_output r.sdc
          (Core.Campaign.sdc_pct r)
      end
    end
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let n_arg =
    Arg.(
      value & opt int 0
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Also run an N-experiment campaign (0 = golden run only), \
             chosen as $(b,campaign) chooses it: adaptive under \
             $(b,ONEBIT_ADAPTIVE) (N is then the cap), incremental under \
             $(b,--incremental) or $(b,ONEBIT_INCREMENTAL), else fixed-N.")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit the campaign as a CSV row (and suppress the golden \
             summary) so runs can be compared byte-for-byte.")
  in
  Cmd.v
    (Cmd.info "run-ir"
       ~doc:
         "Parse a textual IR file (the `dump' format), run it, and \
          optionally inject faults into it.")
    Term.(
      const run $ file_arg $ domain_arg $ technique_arg $ mbf_arg $ win_arg
      $ n_arg $ seed_arg $ csv_arg $ jobs_arg $ store_arg $ metrics_arg
      $ incremental_arg)

(* ---- digests ---- *)

let digests_cmd =
  let run target =
    let name, m =
      if Sys.file_exists target then begin
        let text = In_channel.with_open_text target In_channel.input_all in
        match Ir.Parse.modl text with
        | Ok m -> (Filename.basename target, m)
        | Error msg ->
            Printf.eprintf "%s: %s\n" target msg;
            exit 2
      end
      else (target, ((find_entry target).build ()))
    in
    (match Ir.Validate.check m with
    | Ok () -> ()
    | Error es ->
        List.iter (fun e -> Printf.eprintf "%s: invalid: %s\n" name e) es;
        exit 2);
    let summaries = Dataflow.Summary.analyse m in
    let rows =
      List.map
        (fun (f : Ir.Func.t) ->
          let s = Dataflow.Summary.find summaries f.f_name in
          [
            f.f_name;
            Ir.Fingerprint.func f;
            Ir.Fingerprint.func_semantic f;
            (match s with Some s -> Dataflow.Summary.digest s | None -> "-");
            (match s with
            | Some s when Dataflow.Summary.sdc_free_single s -> "yes"
            | _ -> "no");
          ])
        m.m_funcs
    in
    print_string
      (Report.Table.render
         ~header:[ "function"; "identity"; "semantic"; "summary"; "sdc-free" ]
         rows);
    print_newline ();
    List.iter
      (fun (f : Ir.Func.t) ->
        match Dataflow.Summary.find summaries f.f_name with
        | Some s -> Printf.printf "%s: %s\n" f.f_name (Dataflow.Summary.render s)
        | None -> ())
      m.m_funcs;
    print_newline ();
    Printf.printf "module:      %s\n" (Ir.Fingerprint.modl m);
    Printf.printf "environment: %s\n" (Ir.Fingerprint.environment m)
  in
  let target_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PROGRAM|FILE"
          ~doc:"A registry program name, or a path to a textual IR file.")
  in
  Cmd.v
    (Cmd.info "digests"
       ~doc:
         "Print each function's identity and semantic digests and its \
          static propagation summary (one line per function, plus the \
          summary hash), followed by the module and environment digests.  \
          These are the keys the incremental campaign cache validates \
          against; $(b,sdc-free) marks functions whose summary proves a \
          single-bit flip landing inside them cannot cause SDC.  The \
          summaries are reported here only: no campaign is scheduled on \
          them.")
    Term.(const run $ target_arg)

(* ---- diff-campaign ---- *)

let diff_campaign_cmd =
  let run tolerance old_file new_file =
    (* A grid CSV row: the first five columns identify the campaign cell,
       the next five are the outcome counters.  The technique column
       carries the fault domain as a "mem:"/"code:" prefix (bare for the
       register domain), so the domain is part of the cell key: the same
       (workload, technique, mbf, win, n) cell in different domains never
       compares. *)
    let load file =
      let lines = In_channel.with_open_text file In_channel.input_lines in
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if line = "" || line = Core.Csv.header then None
          else
            match String.split_on_char ',' line with
            | wl :: tech :: mbf :: win :: n :: (_ :: _ :: _ :: _ :: _ :: _ as rest)
              ->
                let counts =
                  List.filteri (fun i _ -> i < 5) rest
                  |> List.map (fun s ->
                         match int_of_string_opt s with
                         | Some v -> v
                         | None ->
                             Printf.eprintf "%s: malformed CSV row: %s\n" file
                               line;
                             exit 2)
                in
                let dom, tech =
                  match String.index_opt tech ':' with
                  | Some i ->
                      ( String.sub tech 0 i,
                        String.sub tech (i + 1) (String.length tech - i - 1) )
                  | None -> ("reg", tech)
                in
                Some ((wl, dom, tech, mbf, win, n), counts)
            | _ ->
                Printf.eprintf "%s: malformed CSV row: %s\n" file line;
                exit 2)
        lines
    in
    let old_rows = load old_file and new_rows = load new_file in
    let outcome_names = [ "benign"; "detected"; "hang"; "no-output"; "sdc" ] in
    let changed = ref 0 and compared = ref 0 in
    let diff_keyed cell_label judge old_rows new_rows =
      List.iter
        (fun (key, nw) ->
          match List.assoc_opt key old_rows with
          | None -> ()
          | Some od ->
              incr compared;
              let parts = judge od nw in
              if parts <> [] then begin
                incr changed;
                Printf.printf "%s: %s\n" (cell_label key)
                  (String.concat ", " parts)
              end)
        new_rows;
      let only_in tag rows others =
        List.iter
          (fun (key, _) ->
            if not (List.mem_assoc key others) then begin
              incr changed;
              Printf.printf "%s: only in %s\n" (cell_label key) tag
            end)
          rows
      in
      only_in "OLD" old_rows new_rows;
      only_in "NEW" new_rows old_rows
    in
    (match tolerance with
    | `Exact ->
        let cell_label (wl, dom, tech, mbf, win, n) =
          let tech = if dom = "reg" then tech else dom ^ ":" ^ tech in
          Printf.sprintf "%s %s m=%s w=%s n=%s" wl tech mbf win n
        in
        let judge od nw =
          List.map2
            (fun name (a, b) ->
              if b = a then None
              else Some (Printf.sprintf "%s %+d" name (b - a)))
            outcome_names (List.combine od nw)
          |> List.filter_map Fun.id
        in
        diff_keyed cell_label judge old_rows new_rows
    | `Ci ->
        (* Statistical drift detection: the cell key drops N so a
           fixed-N campaign compares against an adaptive (or any
           different-N) rerun of the same cell, and an outcome counter
           only counts as drift when the two Wilson 95% intervals are
           disjoint — sampling noise at different N is expected, a
           separated proportion is not. *)
        let rekey file rows =
          List.map
            (fun ((wl, dom, tech, mbf, win, n), counts) ->
              match int_of_string_opt n with
              | Some trials when trials > 0 ->
                  ((wl, dom, tech, mbf, win), (trials, counts))
              | _ ->
                  Printf.eprintf "%s: malformed n column for %s\n" file wl;
                  exit 2)
            rows
        in
        let old_rows = rekey old_file old_rows
        and new_rows = rekey new_file new_rows in
        let cell_label (wl, dom, tech, mbf, win) =
          let tech = if dom = "reg" then tech else dom ^ ":" ^ tech in
          Printf.sprintf "%s %s m=%s w=%s" wl tech mbf win
        in
        let disjoint (n1, k1) (n2, k2) =
          let c1 = Stats.Proportion.wilson ~successes:k1 ~trials:n1 ()
          and c2 = Stats.Proportion.wilson ~successes:k2 ~trials:n2 () in
          c1.Stats.Proportion.hi < c2.Stats.Proportion.lo
          || c2.Stats.Proportion.hi < c1.Stats.Proportion.lo
        in
        let judge (on, oc) (nn, nc) =
          List.map2
            (fun name (ok, nk) ->
              if disjoint (on, ok) (nn, nk) then
                Some
                  (Printf.sprintf "%s %d/%d vs %d/%d (disjoint CIs)" name ok
                     on nk nn)
              else None)
            outcome_names (List.combine oc nc)
          |> List.filter_map Fun.id
        in
        diff_keyed cell_label judge old_rows new_rows);
    Printf.printf "%d cells compared, %d differ\n" !compared !changed;
    if !changed > 0 then exit 1
  in
  let tolerance_arg =
    Arg.(
      value
      & opt (enum [ ("exact", `Exact); ("ci", `Ci) ]) `Exact
      & info [ "tolerance" ] ~docv:"MODE"
          ~doc:
            "$(b,exact) (default) compares counters cell by cell with N in \
             the key; $(b,ci) drops N from the key and reports a drift \
             only when an outcome's old and new Wilson 95% intervals are \
             disjoint — the mode for comparing a fixed-N baseline against \
             an adaptive rerun.")
  in
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW")
  in
  Cmd.v
    (Cmd.info "diff-campaign"
       ~doc:
         "Compare two campaign CSV files (as written by $(b,campaign \
          --csv), $(b,plan) or $(b,run-ir --csv)) cell by cell, keyed on \
          (workload, domain, technique, max_mbf, win_size, n) — the fault \
          domain rides in the technique column as a $(b,mem:)/$(b,code:) \
          prefix.  Prints each outcome-column delta and the cells present \
          in only one file; exits 1 if anything differs.  With \
          $(b,--tolerance ci), N leaves the key and only statistically \
          significant drifts (disjoint Wilson intervals) count.")
    Term.(const run $ tolerance_arg $ old_arg $ new_arg)

(* ---- lint ---- *)

let lint_cmd =
  let run target all =
    let lint_modl label m =
      match Ir.Validate.check m with
      | Error es ->
          List.iter (fun e -> Printf.printf "%s: invalid: %s\n" label e) es;
          List.length es
      | Ok () ->
          let fs = Dataflow.Lint.check m in
          List.iter
            (fun f -> Printf.printf "%s: %s\n" label (Dataflow.Lint.to_string f))
            fs;
          List.length fs
    in
    let total =
      if all then
        List.fold_left
          (fun acc (e : Bench_suite.Desc.t) -> acc + lint_modl e.name (e.build ()))
          0
          (Bench_suite.Registry.all @ Bench_suite.Registry.large)
      else
        match target with
        | None ->
            Printf.eprintf "lint: a PROGRAM argument or --all is required\n";
            exit 2
        | Some t ->
            if Sys.file_exists t then begin
              let text = In_channel.with_open_text t In_channel.input_all in
              match Ir.Parse.modl text with
              | Ok m -> lint_modl (Filename.basename t) m
              | Error msg ->
                  Printf.eprintf "%s: %s\n" t msg;
                  exit 2
            end
            else lint_modl t ((find_entry t).build ())
    in
    if total = 0 then print_endline "clean" else exit 1
  in
  let target_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"PROGRAM|FILE"
          ~doc:"A registry program name, or a path to a textual IR file.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Lint every registry program (including -large variants).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check a program with the dataflow linter (unreachable code, dead \
          stores, unused registers, constant branches, uncalled functions, \
          call-arity mismatches).  Exits 1 if any finding is reported.")
    Term.(const run $ target_arg $ all_arg)

(* ---- harden ---- *)

let harden_cmd =
  let run program light dump coverage n seed =
    let e = find_entry program in
    let level = if light then `Light else `Full in
    let base_modl = e.build () in
    let hard_modl = Harden.Swift.apply ~level base_modl in
    if dump then print_string (Ir.Pp.modl hard_modl)
    else begin
      let expected = e.reference () in
      let base =
        Core.Workload.make ~name:program ~expected_output:expected base_modl
      in
      let hard =
        Core.Workload.make ~name:(program ^ "+swift") ~expected_output:expected
          hard_modl
      in
      Printf.printf "static overhead:  x%.2f\n"
        (Harden.Swift.static_overhead base_modl hard_modl);
      Printf.printf "dynamic overhead: x%.2f\n"
        (float_of_int hard.golden.dyn_count
        /. float_of_int base.golden.dyn_count);
      if coverage then begin
        (* SWIFT and TMR defend the register domain by construction;
           running the same variants under mem and code flips shows what
           each pass does NOT cover. *)
        let tmr =
          Core.Workload.make ~name:(program ^ "+tmr")
            ~expected_output:expected
            (Harden.Tmr.apply base_modl)
        in
        let rows =
          Harden.Coverage.measure
            ~variants:
              [ (program, base); (program ^ "+swift", hard);
                (program ^ "+tmr", tmr) ]
            ~n ~seed ()
        in
        print_newline ();
        print_string
          (Report.Table.render ~header:Harden.Coverage.header
             (List.map Harden.Coverage.to_cells rows))
      end
      else
        List.iter
          (fun (name, w) ->
            let r = Core.Campaign.run w (Core.Spec.single Write) ~n ~seed in
            Printf.printf
              "%-18s single/write: sdc=%.1f%%  detection=%.1f%%  benign=%.1f%%\n"
              name (Core.Campaign.sdc_pct r)
              (100.
              *. float_of_int (r.detected + r.hang + r.no_output)
              /. float_of_int r.n)
              (100. *. float_of_int r.benign /. float_of_int r.n))
          [ (program, base); (program ^ "+swift", hard) ]
    end
  in
  let light_arg =
    Arg.(
      value & flag
      & info [ "light" ] ~doc:"Use light check placement (outputs/stores only).")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ] ~doc:"Print the hardened IR instead of measuring it.")
  in
  let coverage_arg =
    Arg.(
      value & flag
      & info [ "coverage" ]
          ~doc:
            "Measure baseline, SWIFT and TMR variants under every fault \
             domain ($(b,reg), $(b,mem), $(b,code)) and print the \
             sdc/detected/benign table — the non-register rows quantify \
             what register-model hardening does not cover.")
  in
  Cmd.v
    (Cmd.info "harden"
       ~doc:
         "Apply SWIFT-style duplication to a program and compare its \
          resilience against the baseline; with $(b,--coverage), also \
          against TMR and across all fault domains.")
    Term.(
      const run $ program_arg $ light_arg $ dump_arg $ coverage_arg $ n_arg
      $ seed_arg)

(* ---- metrics ---- *)

let metrics_cmd =
  let run program =
    Obs.set_enabled true;
    (match program with
    | Some p ->
        (* Loading a workload performs exactly one golden VM run, so the
           vm_* counters show that run's instruction/trap totals. *)
        ignore (load_workload p)
    | None -> ());
    print_string (Obs.render ())
  in
  let program_opt =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "Optional program whose golden run populates the VM counters \
             before dumping.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Print the metrics registry as a Prometheus-style text dump.  \
          Without $(i,PROGRAM) every registered metric is shown at zero — \
          a machine-readable catalogue of the instrumentation.")
    Term.(const run $ program_opt)

(* ---- fleet: serve / work ---- *)

let parse_coord_addr s =
  match Fleet.parse_addr s with
  | Ok addr -> addr
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2

let ttl_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "ttl" ] ~docv:"SECONDS"
        ~doc:
          "Lease TTL: a shard lease not heartbeated for $(docv) is \
           reassigned to the next worker asking (overrides \
           $(b,ONEBIT_LEASE_TTL); default 30).")

let serve_cmd =
  let run programs domain technique max_mbf win n seed ttl listen workers
      store_dir metrics trace adaptive ci_target =
    let cfg =
      resolve_config ?store:store_dir ?metrics ?trace ?lease_ttl:ttl ?domain
        ?adaptive:(if adaptive then Some true else None)
        ?ci_target ()
    in
    let addr_spec =
      match listen with
      | Some a -> a
      | None ->
          Option.value cfg.Core.Config.coord ~default:"unix:onebit-coord.sock"
    in
    let addr = parse_coord_addr addr_spec in
    let spec = spec_of ~domain:cfg.Core.Config.domain technique max_mbf win in
    let cells =
      List.map
        (fun p ->
          let w = load_workload p in
          {
            Fleet.Proto.c_program = w.Core.Workload.name;
            c_digest = w.Core.Workload.digest;
            c_spec = spec;
            c_n = n;
            c_seed = seed;
          })
        programs
    in
    with_store cfg.Core.Config.store (fun store ->
        let coord =
          Fleet.Coord.create ~ttl:cfg.Core.Config.lease_ttl ?store
            ?ci_target:
              (if cfg.Core.Config.adaptive then
                 Some cfg.Core.Config.ci_target
               else None)
            ~cells ()
        in
        let srv = Fleet.Coord.listen coord addr in
        let addr_s = Fleet.addr_to_string (Fleet.Coord.bound_addr srv) in
        Printf.eprintf "coordinator: %s (%d tasks%s, lease ttl %.1fs)\n%!"
          addr_s
          (Fleet.Coord.total_tasks coord)
          (if cfg.Core.Config.adaptive then
             Printf.sprintf " in round 0, adaptive ci-target %g"
               cfg.Core.Config.ci_target
           else "")
          (Fleet.Coord.ttl coord);
        (* Self-spawned workers connect back over the same address; the
           listener is already bound, so they can never race the accept
           loop. *)
        let children =
          List.init workers (fun _ ->
              Unix.create_process Sys.executable_name
                [| Sys.executable_name; "work"; "--connect"; addr_s |]
                Unix.stdin Unix.stdout Unix.stderr)
        in
        Fleet.Coord.serve srv;
        List.iter (fun pid -> ignore (Unix.waitpid [] pid)) children;
        (match Fleet.Coord.adaptive_summary coord with
        | None -> ()
        | Some rows ->
            List.iter
              (fun ((c : Fleet.Proto.cell), closed_at, met) ->
                Printf.eprintf
                  "adaptive: %s closed at n=%d of cap %d (%s)\n"
                  c.Fleet.Proto.c_program closed_at c.Fleet.Proto.c_n
                  (if met then "CI target met" else "cap exhausted"))
              rows);
        print_endline Core.Csv.header;
        List.iter
          (fun (_, r) -> print_endline (Core.Csv.row r))
          (Fleet.Coord.results coord))
  in
  let programs_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PROGRAM")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Address to listen on: $(b,unix:PATH) or $(b,HOST:PORT) \
             (defaults to $(b,ONEBIT_COORD), else \
             $(b,unix:onebit-coord.sock)).  The same socket answers HTTP \
             GET with the Prometheus metrics dump.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Self-spawn $(docv) worker processes connected to this \
             coordinator (0 = external workers only, started separately \
             with $(b,onebit work)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Coordinate a campaign fleet: lease the campaign's shards to \
          workers, reassign leases whose worker stopped heartbeating, and \
          print the merged CSV — byte-identical to $(b,onebit campaign \
          --csv) for every fleet shape and kill history.  With \
          $(b,--store), completed shards are also persisted and a \
          restarted coordinator resumes at the first missing shard.")
    Term.(
      const run $ programs_arg $ domain_arg $ technique_arg $ mbf_arg
      $ win_arg $ n_arg $ seed_arg $ ttl_arg $ listen_arg $ workers_arg
      $ store_arg $ metrics_arg $ trace_arg $ adaptive_arg $ ci_target_arg)

let work_cmd =
  let run connect id store_dir metrics trace =
    let cfg = resolve_config ?store:store_dir ?metrics ?trace ?coord:connect () in
    let addr_spec =
      match cfg.Core.Config.coord with
      | Some a -> a
      | None ->
          Printf.eprintf
            "work: no coordinator address; pass --connect ADDR or set \
             ONEBIT_COORD\n";
          exit 2
    in
    let addr = parse_coord_addr addr_spec in
    with_store cfg.Core.Config.store (fun store ->
        match
          Fleet.Worker.run ?id ?store ~connect:addr ~load:load_workload ()
        with
        | completed ->
            Printf.eprintf "worker: completed %d shards\n" completed
        | exception Failure e ->
            Printf.eprintf "%s\n" e;
            exit 1
        | exception Unix.Unix_error (err, _, _) ->
            Printf.eprintf "work: cannot reach coordinator %s: %s\n" addr_spec
              (Unix.error_message err);
            exit 1)
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Coordinator address: $(b,unix:PATH) or $(b,HOST:PORT) \
             (overrides $(b,ONEBIT_COORD)).")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:"Worker identity shown in coordinator state (default \
                $(b,worker-<pid>)).")
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Serve a fleet coordinator as a worker: lease shards, compute \
          them, heartbeat in-flight leases, report completions; exits when \
          the coordinator reports the grid complete.  With $(b,--store), \
          locally known shards are served without recomputation and fresh \
          ones are persisted (the store is lease-protected against \
          $(b,onebit engine gc) meanwhile).")
    Term.(
      const run $ connect_arg $ id_arg $ store_arg $ metrics_arg $ trace_arg)

(* ---- engine ---- *)

let require_store store_dir =
  match store_dir with
  | Some dir -> dir
  | None ->
      Printf.eprintf
        "engine: a result store is required; pass --store DIR or set \
         ONEBIT_STORE\n";
      exit 2

(* One Drain transaction against a live coordinator. *)
let fleet_state addr_spec =
  let addr = parse_coord_addr addr_spec in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  match Unix.connect sock addr with
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Printf.eprintf "status: cannot reach coordinator %s: %s\n" addr_spec
        (Unix.error_message err);
      exit 1
  | () ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr sock in
          let ic = Unix.in_channel_of_descr sock in
          Fleet.Proto.write oc Fleet.Proto.Drain;
          match Fleet.Proto.read ic with
          | Ok (Fleet.Proto.State s) -> s
          | Ok _ | Error _ ->
              Printf.eprintf
                "status: unexpected reply from coordinator %s\n" addr_spec;
              exit 1)

let print_fleet_state addr_spec (s : Fleet.Proto.state) =
  Printf.printf "coordinator: %s\n" addr_spec;
  Printf.printf "cells:       %d\n" s.st_cells;
  Printf.printf "tasks:       %d/%d completed, %d leased, %d reassigned\n"
    s.st_completed s.st_tasks
    (List.length s.st_leases)
    s.st_reassigned;
  if s.st_adaptive then
    Printf.printf "adaptive:    round %d, %d cell%s still open\n" s.st_rounds
      s.st_open
      (if s.st_open = 1 then "" else "s");
  Printf.printf "finished:    %s\n" (if s.st_finished then "yes" else "no");
  if s.st_workers <> [] then begin
    print_newline ();
    print_string
      (Report.Table.render
         ~header:[ "worker"; "done"; "inflight"; "hb-age"; "connected" ]
         (List.map
            (fun (w : Fleet.Proto.worker_info) ->
              [
                w.wi_id;
                string_of_int w.wi_completed;
                string_of_int w.wi_inflight;
                Printf.sprintf "%.1fs" w.wi_heartbeat_age;
                (if w.wi_connected then "yes" else "no");
              ])
            s.st_workers))
  end;
  if s.st_leases <> [] then begin
    print_newline ();
    print_string
      (Report.Table.render
         ~header:[ "task"; "worker"; "remaining" ]
         (List.map
            (fun (l : Fleet.Proto.lease_info) ->
              [
                string_of_int l.li_task;
                l.li_worker;
                Printf.sprintf "%.1fs" l.li_remaining;
              ])
            s.st_leases))
  end

let engine_status_cmd =
  let run store_dir coord =
    let cfg = resolve_config ?store:store_dir ?coord () in
    (match cfg.Core.Config.coord with
    | Some addr_spec ->
        print_fleet_state addr_spec (fleet_state addr_spec);
        if cfg.Core.Config.store <> None then print_newline ()
    | None -> ());
    match cfg.Core.Config.store with
    | None -> if cfg.Core.Config.coord = None then print_endline "no store configured"
    | Some dir ->
    let st = Store.open_dir dir in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        let s = Store.stats st in
        Printf.printf "store:      %s\n" (Store.dir st);
        Printf.printf "records:    %d\n" s.records;
        Printf.printf "segments:   %d\n" s.segments;
        Printf.printf "bytes:      %d\n" s.bytes;
        Printf.printf "truncated:  %d\n" s.truncated;
        Printf.printf "corrupt:    %d\n" s.corrupt;
        (* Per-campaign breakdown: shards and experiments held per
           (program, domain, spec, n, seed) stream. *)
        let tbl = Hashtbl.create 16 in
        Store.fold st
          (fun (k : Store.key) _shard () ->
            let id =
              (k.program, k.domain, k.technique, k.max_mbf, k.win, k.n, k.seed)
            in
            let shards, exps =
              Option.value (Hashtbl.find_opt tbl id) ~default:(0, 0)
            in
            Hashtbl.replace tbl id (shards + 1, exps + (k.hi - k.lo)))
          ();
        if Hashtbl.length tbl > 0 then begin
          let rows =
            Hashtbl.fold
              (fun (p, d, t, m, w, n, seed) (shards, exps) acc ->
                let tech = if d = "reg" then t else d ^ ":" ^ t in
                ( [
                    p;
                    Printf.sprintf "%s m=%d w=%s" tech m w;
                    string_of_int n;
                    Int64.to_string seed;
                    string_of_int shards;
                    Printf.sprintf "%d/%d" exps n;
                  ],
                  (p, d, t, m, w, n, seed) )
                :: acc)
              tbl []
            |> List.sort (fun (_, a) (_, b) -> compare a b)
            |> List.map fst
          in
          print_newline ();
          print_string
            (Report.Table.render
               ~header:[ "program"; "spec"; "n"; "seed"; "shards"; "covered" ]
               rows)
        end)
  in
  let coord_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "coord" ] ~docv:"ADDR"
          ~doc:
            "Also query a live fleet coordinator ($(b,unix:PATH) or \
             $(b,HOST:PORT); overrides $(b,ONEBIT_COORD)): live leases, \
             per-worker shard counts, heartbeat ages and the reassignment \
             count.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show result-store statistics and per-campaign coverage; with \
          $(b,--coord) (or $(b,ONEBIT_COORD)), fleet state first.")
    Term.(const run $ store_arg $ coord_arg)

let engine_gc_cmd =
  let run store_dir =
    let dir =
      require_store (resolve_config ?store:store_dir ()).Core.Config.store
    in
    let st = Store.open_dir dir in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        let r =
          try Store.gc st
          with Store.Busy pids ->
            Printf.eprintf
              "gc: store %s is in use: writer lease(s) held by live \
               process(es) %s; retry when the run finishes\n"
              dir
              (String.concat ", " (List.map string_of_int pids));
            exit 1
        in
        Printf.printf "live records:   %d\n" r.live_records;
        Printf.printf "dropped dups:   %d\n" r.dropped_duplicates;
        Printf.printf "segments:       %d -> %d\n" r.segments_before
          r.segments_after;
        Printf.printf "bytes:          %d -> %d\n" r.bytes_before r.bytes_after)
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact the result store: rewrite all live records into fresh \
          segments, dropping duplicates and corrupt tails.")
    Term.(const run $ store_arg)

let engine_cmd =
  Cmd.group
    (Cmd.info "engine" ~doc:"Inspect and maintain the campaign result store.")
    [ engine_status_cmd; engine_gc_cmd ]

let () =
  (* Arm any ONEBIT_METRICS / ONEBIT_TRACE sinks for every subcommand;
     flag-given sinks are added per-command by [resolve_config]. *)
  Core.Config.install (Core.Config.of_env ());
  let doc = "single/multiple bit-flip fault injection (DSN'17 reproduction)" in
  let info = Cmd.info "onebit" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; dump_cmd; golden_cmd; campaign_cmd; plan_cmd;
            experiment_cmd; reproduce_cmd; run_ir_cmd; digests_cmd;
            diff_campaign_cmd; lint_cmd; harden_cmd; metrics_cmd; engine_cmd;
            serve_cmd; work_cmd;
          ]))
