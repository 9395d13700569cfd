(* Tests for the crash-tolerant result store: canonical JSON, roundtrips,
   reopen persistence, damage handling (truncated tails vs corrupt
   records), segment rotation and gc compaction. *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "onebit-store-test-%d-%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let shard ~lo ~hi : Core.Campaign.shard =
  let n = hi - lo in
  {
    lo;
    hi;
    s_benign = n - 2;
    s_detected = 1;
    s_hang = 0;
    s_no_output = 0;
    s_sdc = 1;
    s_traps = [ (Vm.Trap.Segfault, 1) ];
    s_activation = [ (0, 2); (1, n - 2) ];
    s_weighted_sdc = 1.5;
    s_weighted_total = float_of_int n;
    s_experiments = [||];
  }

let key ~lo ~hi =
  Store.key ~program:"p" ~digest:"d3adb33f" ~spec:(Core.Spec.single Read)
    ~n:100 ~seed:7L ~lo ~hi

let equal_shard (a : Core.Campaign.shard) (b : Core.Campaign.shard) =
  a.lo = b.lo && a.hi = b.hi && a.s_benign = b.s_benign
  && a.s_detected = b.s_detected && a.s_hang = b.s_hang
  && a.s_no_output = b.s_no_output && a.s_sdc = b.s_sdc
  && a.s_traps = b.s_traps && a.s_activation = b.s_activation
  && a.s_weighted_sdc = b.s_weighted_sdc
  && a.s_weighted_total = b.s_weighted_total

(* ---- canonical JSON ---- *)

let test_jsonx_roundtrip () =
  let open Store.Jsonx in
  let j =
    Obj
      [
        ("s", Str "he\"llo\n\t\\");
        ("i", Int (-42));
        ("f", Float 0.1);
        ("g", Float 3.0);
        ("a", Arr [ Null; Bool true; Bool false; Int 0 ]);
        ("o", Obj [ ("nested", Arr []) ]);
      ]
  in
  let s = to_string j in
  (match of_string s with
  | Ok j' ->
      Alcotest.(check string) "reserialises identically" s (to_string j')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (of_string "{\"x\":"));
  Alcotest.(check bool) "trailing junk rejected" true
    (Result.is_error (of_string "{} x"))

(* ---- roundtrip and reopen ---- *)

let test_roundtrip_reopen () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  let k = key ~lo:0 ~hi:25 and s = shard ~lo:0 ~hi:25 in
  Alcotest.(check bool) "absent before add" true (Store.lookup st k = None);
  Store.add st k s;
  (match Store.lookup st k with
  | Some s' -> Alcotest.(check bool) "same shard" true (equal_shard s s')
  | None -> Alcotest.fail "lookup after add");
  Store.close st;
  (* A fresh open must see the record. *)
  let st = Store.open_dir dir in
  (match Store.lookup st k with
  | Some s' -> Alcotest.(check bool) "survives reopen" true (equal_shard s s')
  | None -> Alcotest.fail "lookup after reopen");
  let stats = Store.stats st in
  Alcotest.(check int) "one record" 1 stats.records;
  Alcotest.(check int) "no damage" 0 (stats.truncated + stats.corrupt);
  Store.close st

let test_add_is_idempotent () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  let k = key ~lo:0 ~hi:25 and s = shard ~lo:0 ~hi:25 in
  Store.add st k s;
  let bytes_once = (Store.stats st).bytes in
  Store.add st k s;
  Alcotest.(check int) "second add writes nothing" bytes_once
    (Store.stats st).bytes;
  Store.close st

(* ---- damage handling ---- *)

let segment_of dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort compare
  with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected one segment, got %d" (List.length l)

let test_truncated_tail_dropped () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add st (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  Store.add st (key ~lo:25 ~hi:50) (shard ~lo:25 ~hi:50);
  Store.close st;
  (* Chop the file mid-way through the second record, as a kill during
     append would. *)
  let path = segment_of dir in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.index text '\n' + 10 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 cut));
  let st = Store.open_dir dir in
  let stats = Store.stats st in
  Alcotest.(check int) "first record kept" 1 stats.records;
  Alcotest.(check int) "tail counted as truncated" 1 stats.truncated;
  Alcotest.(check int) "not counted as corrupt" 0 stats.corrupt;
  Alcotest.(check bool) "victim gone" true
    (Store.lookup st (key ~lo:25 ~hi:50) = None);
  Alcotest.(check bool) "survivor intact" true
    (Store.lookup st (key ~lo:0 ~hi:25) <> None);
  (* A resumed run appends after the partial line without merging with
     it: the next open finds its record and no corruption. *)
  Store.add st (key ~lo:25 ~hi:50) (shard ~lo:25 ~hi:50);
  Store.close st;
  let st = Store.open_dir dir in
  let stats = Store.stats st in
  Alcotest.(check int) "both records after reopen" 2 stats.records;
  Alcotest.(check int) "still one truncated tail" 1 stats.truncated;
  Alcotest.(check int) "appended record not corrupt" 0 stats.corrupt;
  Alcotest.(check bool) "appended record found" true
    (match Store.lookup st (key ~lo:25 ~hi:50) with
    | Some s -> equal_shard s (shard ~lo:25 ~hi:50)
    | None -> false);
  Store.close st

let test_bad_checksum_rejected () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add st (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  Store.close st;
  (* Flip one digit inside the record body: the line still parses as
     JSON but no longer matches its checksum. *)
  let path = segment_of dir in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let find_sub hay needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length hay then Alcotest.fail "marker not found"
      else if String.sub hay i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  let i = find_sub text "\"b\":" + 4 in
  let b = Bytes.of_string text in
  Bytes.set b i (if Bytes.get b i = '9' then '8' else '9');
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  let st = Store.open_dir dir in
  let stats = Store.stats st in
  Alcotest.(check int) "record rejected" 0 stats.records;
  Alcotest.(check int) "counted as corrupt" 1 stats.corrupt;
  Alcotest.(check int) "not counted as truncated" 0 stats.truncated;
  Store.close st

(* Rewrite every record of a segment through [edit] on its value
   fields, recomputing each checksum, as a forger (or a bug writing
   wrong counts) would. *)
let forge_values path edit =
  let open Store.Jsonx in
  let forge line =
    match of_string line with
    | Ok (Obj [ ("c", _); ("k", k); ("v", Obj fields) ]) ->
        let payload = to_string (Obj [ ("k", k); ("v", Obj (edit fields)) ]) in
        Printf.sprintf "{\"c\":\"%s\",%s"
          (Digest.to_hex (Digest.string payload))
          (String.sub payload 1 (String.length payload - 1))
    | _ -> Alcotest.failf "unexpected record %s" line
  in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (forge l ^ "\n")) lines)

(* Counts that do not add up are dropped as corrupt even under a valid
   checksum: a shard claiming 1,000 extra benign runs, and a profile
   whose activation histogram holds a negative count. *)
let test_inconsistent_counts_rejected () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add st (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  Store.add_profile st
    (Store.profile_key ~program:"p" ~func:"main" ~fdigest:"f00d" ~env:"e1"
       ~spec:(Core.Spec.single Read) ~n:100 ~seed:7L)
    {
      Core.Campaign.p_exps = 4;
      p_benign = 3;
      p_detected = 0;
      p_hang = 0;
      p_no_output = 0;
      p_sdc = 1;
      p_traps = [];
      p_activation = [ (0, 2); (1, 2) ];
      p_weighted_sdc = 1.0;
      p_weighted_total = 4.0;
    };
  Store.close st;
  forge_values (segment_of dir) (fun fields ->
      let open Store.Jsonx in
      if List.mem_assoc "e" fields then
        (* The profile's 4 experiments: still 4 activations in all. *)
        List.map
          (function
            | "act", _ ->
                ("act", Arr [ Arr [ Int 0; Int 6 ]; Arr [ Int 1; Int (-2) ] ])
            | field -> field)
          fields
      else
        List.map
          (function "b", Int b -> ("b", Int (b + 1000)) | field -> field)
          fields);
  let st = Store.open_dir dir in
  let stats = Store.stats st in
  Alcotest.(check int) "both records rejected" 0 stats.records;
  Alcotest.(check int) "counted as corrupt" 2 stats.corrupt;
  Alcotest.(check int) "not counted as truncated" 0 stats.truncated;
  Store.close st

(* ---- rotation and gc ---- *)

let test_rotation_and_gc () =
  let dir = temp_dir () in
  (* Tiny segments force a rotation every record or two. *)
  let st = Store.open_dir ~segment_bytes:300 dir in
  for i = 0 to 7 do
    let lo = i * 25 and hi = (i + 1) * 25 in
    Store.add st (key ~lo ~hi) (shard ~lo ~hi)
  done;
  let stats = Store.stats st in
  Alcotest.(check int) "all records present" 8 stats.records;
  Alcotest.(check bool) "rotated into several segments" true
    (stats.segments > 1);
  Store.close st;
  let st = Store.open_dir ~segment_bytes:300 dir in
  Alcotest.(check int) "all records survive reopen" 8 (Store.stats st).records;
  let report = Store.gc st in
  Alcotest.(check int) "gc keeps everything live" 8 report.live_records;
  Alcotest.(check int) "gc compacts to one segment" 1 report.segments_after;
  Alcotest.(check int) "records intact after gc" 8 (Store.stats st).records;
  Store.close st;
  let st = Store.open_dir dir in
  Alcotest.(check int) "records survive gc + reopen" 8 (Store.stats st).records;
  for i = 0 to 7 do
    let lo = i * 25 and hi = (i + 1) * 25 in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d readable" i)
      true
      (match Store.lookup st (key ~lo ~hi) with
      | Some s -> equal_shard s (shard ~lo ~hi)
      | None -> false)
  done;
  Store.close st

(* ---- several handles on one directory ---- *)

(* Records another handle appended after this one opened live only on
   disk: gc must keep them. *)
let test_gc_keeps_other_handles () =
  let dir = temp_dir () in
  let g = Store.open_dir dir in
  Store.add g (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  let w = Store.open_dir dir in
  Store.add w (key ~lo:25 ~hi:50) (shard ~lo:25 ~hi:50);
  Store.close w;
  let report = Store.gc g in
  Alcotest.(check int) "gc keeps both records" 2 report.live_records;
  Alcotest.(check bool) "the compacting handle sees the other's record"
    true
    (Store.lookup g (key ~lo:25 ~hi:50) <> None);
  Store.close g;
  let st = Store.open_dir dir in
  Alcotest.(check int) "both records survive reopen" 2
    (Store.stats st).records;
  Alcotest.(check bool) "the other handle's shard is readable" true
    (match Store.lookup st (key ~lo:25 ~hi:50) with
    | Some s -> equal_shard s (shard ~lo:25 ~hi:50)
    | None -> false);
  Store.close st

(* A handle whose active segment another handle's gc removed, before its
   first append, must not append to the removed file. *)
let test_append_after_other_gc () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add st (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  Store.close st;
  let h = Store.open_dir dir in
  let g = Store.open_dir dir in
  ignore (Store.gc g : Store.gc_report);
  Store.close g;
  Store.add h (key ~lo:25 ~hi:50) (shard ~lo:25 ~hi:50);
  Store.close h;
  let st = Store.open_dir dir in
  Alcotest.(check int) "both records survive reopen" 2
    (Store.stats st).records;
  Alcotest.(check bool) "the late append is readable" true
    (match Store.lookup st (key ~lo:25 ~hi:50) with
    | Some s -> equal_shard s (shard ~lo:25 ~hi:50)
    | None -> false);
  Store.close st

let test_fold_visits_all () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  for i = 0 to 3 do
    let lo = i * 25 and hi = (i + 1) * 25 in
    Store.add st (key ~lo ~hi) (shard ~lo ~hi)
  done;
  let seen = Store.fold st (fun (k : Store.key) _ acc -> k.lo :: acc) [] in
  Alcotest.(check (list int))
    "every lo visited once" [ 0; 25; 50; 75 ]
    (List.sort compare seen);
  Store.close st

(* ---- pinned bytes ---- *)

(* The exact segment text of a reg-domain shard, a mem-domain shard (its
   key carries "dom") and a profile record.  Field order, float printing
   and checksums are the on-disk format of every store already written,
   so this text must not change. *)
let pinned_segment =
  String.concat ""
    (List.map
       (fun line -> line ^ "\n")
       [
         {|{"c":"2e835fd6e6e5ade89207e9450baf7871","k":{"p":"p","d":"d3adb33f","t":"inject-on-read","m":1,"w":"0","n":100,"s":"7","lo":0,"hi":25},"v":{"b":23,"det":1,"h":0,"no":0,"sdc":1,"traps":[["segfault",1]],"act":[[0,2],[1,23]],"ws":1.5,"wt":25}}|};
         {|{"c":"314d752be5fe12cbf56586e0d9b5f0f7","k":{"p":"p","d":"d3adb33f","t":"inject-on-write","m":3,"w":"RND(2-10)","n":100,"s":"7","lo":25,"hi":50,"dom":"mem"},"v":{"b":23,"det":1,"h":0,"no":0,"sdc":1,"traps":[["segfault",1]],"act":[[0,2],[1,23]],"ws":0.10000000000000001,"wt":25}}|};
         {|{"c":"941afa2b307343c94a76e4be1c70f6af","k":{"r":"prof","p":"p","f":"main","fd":"f00d","e":"e1","t":"inject-on-read","m":1,"w":"0","n":100,"s":"7"},"v":{"e":4,"b":1,"det":2,"h":0,"no":0,"sdc":1,"traps":[["segfault",1],["div-by-zero",1]],"act":[[1,3],[2,1]],"ws":2.5,"wt":7}}|};
       ])

let test_pinned_bytes () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  Store.add st (key ~lo:0 ~hi:25) (shard ~lo:0 ~hi:25);
  Store.add st
    (Store.key ~program:"p" ~digest:"d3adb33f"
       ~spec:(Core.Spec.multi ~domain:Mem Write ~max_mbf:3 ~win:(Rnd (2, 10)))
       ~n:100 ~seed:7L ~lo:25 ~hi:50)
    { (shard ~lo:25 ~hi:50) with s_weighted_sdc = 0.1 };
  Store.add_profile st
    (Store.profile_key ~program:"p" ~func:"main" ~fdigest:"f00d" ~env:"e1"
       ~spec:(Core.Spec.single Read) ~n:100 ~seed:7L)
    {
      Core.Campaign.p_exps = 4;
      p_benign = 1;
      p_detected = 2;
      p_hang = 0;
      p_no_output = 0;
      p_sdc = 1;
      p_traps = [ (Vm.Trap.Segfault, 1); (Vm.Trap.Div_by_zero, 1) ];
      p_activation = [ (1, 3); (2, 1) ];
      p_weighted_sdc = 2.5;
      p_weighted_total = 7.0;
    };
  Store.close st;
  Alcotest.(check string) "segment text" pinned_segment
    (In_channel.with_open_bin (segment_of dir) In_channel.input_all)

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "jsonx roundtrip" `Quick test_jsonx_roundtrip;
        Alcotest.test_case "roundtrip + reopen" `Quick test_roundtrip_reopen;
        Alcotest.test_case "add idempotent" `Quick test_add_is_idempotent;
        Alcotest.test_case "truncated tail dropped" `Quick
          test_truncated_tail_dropped;
        Alcotest.test_case "bad checksum rejected" `Quick
          test_bad_checksum_rejected;
        Alcotest.test_case "inconsistent counts rejected" `Quick
          test_inconsistent_counts_rejected;
        Alcotest.test_case "rotation + gc" `Quick test_rotation_and_gc;
        Alcotest.test_case "gc keeps other handles' appends" `Quick
          test_gc_keeps_other_handles;
        Alcotest.test_case "append after another handle's gc" `Quick
          test_append_after_other_gc;
        Alcotest.test_case "fold visits all" `Quick test_fold_visits_all;
        Alcotest.test_case "pinned segment bytes" `Quick test_pinned_bytes;
      ] );
  ]
