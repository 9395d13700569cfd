let () =
  Alcotest.run "onebit"
    (Suite_prng.suites @ Suite_stats.suites @ Suite_ir.suites @ Suite_vm.suites
   @ Suite_bench.suites @ Suite_core.suites @ Suite_analysis.suites
   @ Suite_report.suites @ Suite_harden.suites @ Suite_parse.suites @ Suite_differential.suites @ Suite_targets.suites @ Suite_edge.suites @ Suite_severity.suites @ Suite_dataflow.suites @ Suite_store.suites @ Suite_engine.suites
   @ Suite_obs.suites @ Suite_vm_code.suites @ Suite_checkpoint.suites
   @ Suite_incremental.suites @ Suite_fleet.suites @ Suite_domain.suites
   @ Suite_adaptive.suites @ Suite_exits.suites @ Suite_quiet.suites
   @ Suite_oracle.suites @ Suite_fuzz.suites)
