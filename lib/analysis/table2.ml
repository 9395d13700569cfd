type row = {
  program : string;
  package : string;
  suite : string;
  dyn_count : int;
  read_cands : int;
  write_cands : int;
  pred_reads : int;
  pred_writes : int;
}

let compute (study : Study.t) =
  List.map
    (fun (w : Core.Workload.t) ->
      let pred =
        Dataflow.Candidates.predict w.modl
          ~profile:(Core.Workload.profile w)
      in
      let package, suite =
        match Bench_suite.Registry.find w.name with
        | Some e -> (e.package, e.suite)
        | None -> ("?", "?")
      in
      {
        program = w.name;
        package;
        suite;
        dyn_count = w.golden.dyn_count;
        read_cands = w.checkpoints.read_cands;
        write_cands = w.checkpoints.write_cands;
        pred_reads = pred.reads;
        pred_writes = pred.writes;
      })
    study.workloads
