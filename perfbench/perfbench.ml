(* The benchmark's measuring process.  [run.py] drives it; each
   invocation is one fresh process, so set-up pays the cold decode and
   checkpoint caches that every [onebit campaign] invocation pays.

     perfbench.exe study --workload W --seed S [--size full|small]
                         [--seconds T] [--work DIR] [--refs-dir DIR]
                         [--setup-only]
     perfbench.exe trace --workload W --seed S [--size ...] [--work DIR]
                         [--refs-dir DIR]
     perfbench.exe refs  --workload W --seed S [--size ...] --refs-dir DIR

   [study] and [trace] print one JSON object on the last line of stdout;
   [refs] writes the reference file for one (workload, size, seed) and
   refuses to run unless the environment selects the seed interpreter
   with checkpointing off. *)

module J = Store.Jsonx
open Common

let study () =
  let t, size = load () in
  let cseed = Int64.of_int !seed in
  let t0 = now () in
  let loaded = Wl.setup t in
  let first_store = if t.study_store then Some (open_store "pass-1") else None in
  let setup_s = now () -. t0 in
  let setup_heap = heap_mb () in
  let ws = List.map (fun (l : Wl.loaded) -> l.w) loaded in
  if !setup_only then begin
    print_endline
      (J.to_string
         (J.Obj
            [
              ("setup_s", J.Float setup_s);
              ("setup_heap_mb", J.Float setup_heap);
              ("calib_s", J.Float (Calib.time ()));
            ]));
    exit 0
  end;
  let results = ref [] in
  let timed_pass ?store () =
    let t0 = now () in
    let rs, executed = Wl.study ?store t ws ~seed:cseed in
    let dt = now () -. t0 in
    Option.iter Store.close store;
    results := rs :: !results;
    (executed, dt)
  in
  (* A run of the reference workload comes before every study pass and
     after the last; [run.py] scales each pass by the two around it.  The
     first pass follows set-up, as in a fresh [onebit campaign]. *)
  let calib = ref [ Calib.time () ] in
  let exps, first_s = timed_pass ?store:first_store () in
  let first = List.hd !results in
  (* Untimed: the oracle, which also gives a workload whose study keeps
     no store one for the resume passes to read back. *)
  let resume_dir = if t.study_store then "pass-1" else "oracle" in
  let oracle_store = if t.study_store then None else Some (open_store resume_dir) in
  let oracle, instrs = Check.oracle ?store:oracle_store ~cap:t.n ws first in
  Option.iter Store.close oracle_store;
  (* Study and resume passes interleave, so both sample the host over
     the whole run; each study pass starts from a compacted heap. *)
  let study_s = ref [ first_s ] and resume_s = ref [] and resume_exps = ref 0 in
  let drifted = ref false in
  let resumes () =
    for _ = 1 to 3 do
      let executed, dt = timed_pass ~store:(open_store resume_dir) () in
      resume_s := dt :: !resume_s;
      resume_exps := !resume_exps + executed
    done
  in
  resumes ();
  let deadline = now () +. !seconds -. first_s in
  while now () < deadline do
    let k = List.length !study_s + 1 in
    let store =
      if t.study_store then Some (open_store (Printf.sprintf "pass-%d" k)) else None
    in
    Gc.compact ();
    calib := Calib.time () :: !calib;
    let executed, dt = timed_pass ?store () in
    if executed <> exps then drifted := true;
    study_s := dt :: !study_s;
    resumes ()
  done;
  calib := Calib.time () :: !calib;
  let peak = heap_mb () in
  let refs = refs_for t ~size in
  let expected = Check.expected ~refs ~oracle first in
  let checked = oracle :: !results in
  let failed = List.concat_map (Check.failures expected) checked in
  let failed = if !resume_exps > 0 then "resume executed experiments" :: failed else failed in
  let failed = if !drifted then "passes executed different counts" :: failed else failed in
  let cells = List.length first in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("setup_s", J.Float setup_s);
            ("setup_heap_mb", J.Float setup_heap);
            ("study_s", floats (List.rev !study_s));
            ("calib_s", floats (List.rev !calib));
            ("exps", J.Int exps);
            ("instrs", J.Int (fst instrs));
            ("suffix_instrs", J.Int (snd instrs));
            ("resume_s", floats (List.rev !resume_s));
            ("peak_heap_mb", J.Float peak);
            ("cells", J.Int cells);
            ("checked", J.Int (cells * List.length checked));
            ("failed", J.Int (List.length failed));
            ("failed_keys", J.Arr (List.map (fun k -> J.Str k) (List.sort_uniq compare failed)));
            ("reference", J.Str (reference_kind refs));
            ("digest", J.Str (Check.digest first));
            ("manifest", manifest t ws ~size);
          ]))

let refs () =
  let t, size = load () in
  if Core.Config.active_backend () <> Core.Config.Seed || Core.Config.checkpointing ()
  then die "refs: run with ONEBIT_BACKEND=seed ONEBIT_CHECKPOINT=off";
  if !refs_dir = "" then die "refs: --refs-dir is required";
  let ws = List.map (fun (l : Wl.loaded) -> l.w) (Wl.setup t) in
  let rs, _ = Wl.study t ws ~seed:(Int64.of_int !seed) in
  let path = Check.refs_path ~dir:!refs_dir t ~size ~seed:(Int64.of_int !seed) in
  Check.write_refs path rs;
  Printf.printf "wrote %s (%d cells)\n" path (List.length rs)

let () =
  let cmd = ref "" in
  Arg.parse Common.specs
    (fun a -> if !cmd = "" then cmd := a else die "unexpected argument %s" a)
    "perfbench.exe (study|trace|refs) --workload NAME --seed N [options]";
  match !cmd with
  | "study" -> study ()
  | "trace" -> Layers.trace ()
  | "refs" -> refs ()
  | c -> die "unknown subcommand %S (study, trace or refs)" c
