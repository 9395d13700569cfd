type variant = Baseline | Swift_full | Swift_light | Tmr

type row = {
  program : string;
  variant : variant;
  technique : Core.Technique.t;
  dyn_overhead : float;
  results : (Core.Spec.t * Core.Campaign.result) list;
}

let variant_name = function
  | Baseline -> "baseline"
  | Swift_full -> "swift-full"
  | Swift_light -> "swift-light"
  | Tmr -> "tmr"

let specs_measured technique =
  [
    Core.Spec.single technique;
    Core.Spec.multi technique ~max_mbf:2 ~win:(Fixed 1);
    Core.Spec.multi technique ~max_mbf:3 ~win:(Fixed 1);
  ]

let default_programs = [ "qsort"; "crc32"; "sha"; "fft"; "spmv" ]

let compute ?(n = 200) ?(seed = 20170626L) ?(programs = default_programs) () =
  List.concat_map
    (fun name ->
      let entry =
        match Bench_suite.Registry.find name with
        | Some e -> e
        | None -> invalid_arg ("Coverage.compute: unknown program " ^ name)
      in
      let base_modl = entry.build () in
      let expected = entry.reference () in
      let base = Core.Workload.make ~name ~expected_output:expected base_modl in
      let workload_of variant =
        match variant with
        | Baseline -> base
        | Swift_full ->
            Core.Workload.make ~name:(name ^ "+swift")
              ~expected_output:expected
              (Harden.Swift.apply ~level:`Full base_modl)
        | Swift_light ->
            Core.Workload.make ~name:(name ^ "+light")
              ~expected_output:expected
              (Harden.Swift.apply ~level:`Light base_modl)
        | Tmr ->
            Core.Workload.make ~name:(name ^ "+tmr") ~expected_output:expected
              (Harden.Tmr.apply base_modl)
      in
      let base_dyn = float_of_int base.golden.dyn_count in
      List.concat_map
        (fun variant ->
          let w = workload_of variant in
          List.map
            (fun technique ->
              {
                program = name;
                variant;
                technique;
                dyn_overhead = float_of_int w.golden.dyn_count /. base_dyn;
                results =
                  List.map
                    (fun spec ->
                      (spec, Core.Campaign.run w spec ~n ~seed))
                    (specs_measured technique);
              })
            Core.Technique.all)
        [ Baseline; Swift_full; Swift_light; Tmr ])
    programs
