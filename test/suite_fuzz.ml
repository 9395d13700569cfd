(* Decoder robustness: [Store.Jsonx.of_string], [Fleet.Proto.of_line] and
   [Ir.Parse.modl] answer [Ok] or [Error] on any input and never raise.
   Inputs are random strings and byte mutations (flips, insertions,
   deletions, duplicated slices, truncations) of valid documents: a store
   record line, every fleet message kind and the printed crc32 module. *)

(* One byte-level edit of [s], positions drawn inside it. *)
let gen_edit s =
  let open QCheck.Gen in
  let n = String.length s in
  let pos = int_bound n in
  let sub lo len =
    let lo = min lo n in
    String.sub s lo (min len (n - lo))
  in
  oneof
    [
      (* replace one byte (append one at the end) *)
      map2
        (fun i c -> String.sub s 0 i ^ String.make 1 c ^ sub (i + 1) n)
        pos char;
      (* insert a few bytes *)
      map2
        (fun i ins -> String.sub s 0 i ^ ins ^ sub i n)
        pos
        (string_size ~gen:char (int_range 1 4));
      (* delete a slice *)
      map2
        (fun i len -> String.sub s 0 i ^ sub (i + len) n)
        pos (int_bound 16);
      (* duplicate a slice in place *)
      map2
        (fun i len -> String.sub s 0 i ^ sub i len ^ sub i n)
        pos (int_bound 16);
      (* truncate *)
      map (fun i -> String.sub s 0 i) pos;
    ]

let gen_mutation s =
  let open QCheck.Gen in
  int_range 1 4 >>= fun k ->
  let rec go k s = if k = 0 then return s else gen_edit s >>= go (k - 1) in
  go k s

(* Random text, half of it over the characters the decoders look for, so
   it gets past their first byte. *)
let gen_noise =
  let open QCheck.Gen in
  let syntax = "{}[]\":,.0123456789-+eEtrufalsn\\ \n%@=xiv" in
  oneof
    [
      string_size ~gen:char (int_bound 64);
      string_size
        ~gen:(map (String.get syntax) (int_bound (String.length syntax - 1)))
        (int_bound 64);
    ]

let gen_input valid =
  QCheck.Gen.(oneof [ gen_noise; valid >>= gen_mutation ])

let never_raises ~name ~count decode valid =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_input valid))
    (fun s ->
      match decode s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* One line of a real store segment. *)
let record_line =
  lazy
    (let dir = Suite_store.temp_dir () in
     let st = Store.open_dir dir in
     Store.add st
       (Suite_store.key ~lo:0 ~hi:25)
       (Suite_store.shard ~lo:0 ~hi:25);
     Store.close st;
     let text =
       In_channel.with_open_bin (Suite_store.segment_of dir)
         In_channel.input_all
     in
     String.sub text 0 (String.index text '\n'))

let prop_jsonx =
  never_raises ~name:"Jsonx.of_string never raises" ~count:500
    Store.Jsonx.of_string
    (fun _ -> Lazy.force record_line)

let prop_proto =
  never_raises ~name:"Proto.of_line never raises" ~count:500
    Fleet.Proto.of_line
    (QCheck.Gen.map Fleet.Proto.to_line Suite_fleet.gen_msg)

let crc32_text =
  lazy
    (Ir.Pp.modl
       ((Option.get (Bench_suite.Registry.find "crc32")).build ()))

let prop_parse =
  never_raises ~name:"Parse.modl never raises" ~count:150 Ir.Parse.modl
    (fun _ -> Lazy.force crc32_text)

let suites =
  [
    ( "fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_jsonx; prop_proto; prop_parse ] );
  ]
