(* The pipeline differential: whole campaigns on the reference oracle
   ([Thelpers.oracle_campaign], every experiment on
   [Experiment.run_oracle]) and on the production path must print the
   same CSV row.  Production is [Engine.run_campaign ~jobs:4
   ~shard_size:5], which is what [onebit campaign] runs under
   [ONEBIT_JOBS=4 ONEBIT_SHARD=5]: compiled, restoring golden-prefix
   checkpoints, taking early exits, on 4 worker domains.  Each cell uses
   the CLI's spec at its default seed, n = 40, and keeps its experiment
   records, so a run that ends with the right outcome at the wrong
   length fails too.  qsort's reg and mem cells take shifted rejoins,
   nn's mem and code cells many golden and cycle exits, the m = 30 write
   cells are the paper's longest windows, and the m = 2, w = 0 write
   cells are the fault-domain cells. *)

let n = 40
let seed = 20170626L

let workloads =
  List.map
    (fun name ->
      ( name,
        lazy
          (let d = Option.get (Bench_suite.Registry.find name) in
           Core.Workload.make ~name:d.name ~expected_output:(d.reference ())
             (d.build ())) ))
    [ "crc32"; "qsort"; "nn" ]

let cell program domain technique ~max_mbf ~win =
  (* Named after the [onebit campaign] flags of the cell. *)
  let name =
    Printf.sprintf "%s -d %s -t %s -m %d -w %s" program
      (Core.Domain.to_string domain)
      (match technique with Core.Technique.Read -> "read" | Write -> "write")
      max_mbf (Core.Win.to_string win)
  in
  Alcotest.test_case name `Quick (fun () ->
      let w = Lazy.force (List.assoc program workloads) in
      let spec = Core.Spec.multi ~domain technique ~max_mbf ~win in
      let oracle =
        Thelpers.oracle_campaign ~keep_experiments:true w spec ~n ~seed
      in
      let prod =
        Engine.run_campaign ~jobs:4 ~shard_size:5 ~keep_experiments:true w
          spec ~n ~seed
      in
      Alcotest.(check string) "csv row" (Core.Csv.row oracle)
        (Core.Csv.row prod);
      (* Beyond the row: every experiment's outcome, activation count,
         dynamic length and output. *)
      Alcotest.(check bool) "equal result" true
        (Core.Campaign.equal_result oracle prod))

let suites =
  let open Core.Technique in
  let domains = Core.Domain.all in
  [
    ( "oracle cells",
      List.concat_map
        (fun p ->
          List.map
            (fun d -> cell p d Read ~max_mbf:3 ~win:(Fixed 10))
            domains
          @ [ cell p Core.Domain.Reg Write ~max_mbf:30 ~win:(Fixed 100) ])
        [ "crc32"; "qsort" ]
      @ List.map
          (fun d -> cell "nn" d Read ~max_mbf:3 ~win:(Fixed 10))
          [ Core.Domain.Mem; Core.Domain.Code ]
      @ List.map
          (fun d -> cell "crc32" d Write ~max_mbf:2 ~win:(Fixed 0))
          domains );
  ]
