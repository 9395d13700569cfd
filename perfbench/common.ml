(* Options and helpers shared by the measuring subcommands. *)

module J = Store.Jsonx

let workload = ref ""
let seed = ref 20170626
let size = ref "full"
let seconds = ref 10.0
let work = ref "."
let refs_dir = ref ""
let setup_only = ref false

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME one of paper-grid, nn-domains, adaptive-store");
    ("--seed", Arg.Set_int seed, "N campaign seed");
    ("--size", Arg.Set_string size, "full|small");
    ("--seconds", Arg.Set_float seconds, "S time for the timed passes");
    ("--work", Arg.Set_string work, "DIR scratch directory for stores");
    ("--refs-dir", Arg.Set_string refs_dir, "DIR committed reference results");
    ("--setup-only", Arg.Set setup_only, " measure set-up and exit");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let now = Wl.now

let floats l = J.Arr (List.map (fun x -> J.Float x) l)

(* The OCaml heap's high-water mark so far. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Provenance: everything that decides what this process measured. *)
let manifest (t : Wl.t) ws ~size =
  let c = Core.Config.of_env () in
  let opt = function Some s -> J.Str s | None -> J.Null in
  J.Obj
    [
      ("workload", J.Str t.name);
      ("size", J.Str (Wl.size_name size));
      ("seed", J.Int !seed);
      ("ocaml", J.Str Sys.ocaml_version);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ( "config",
        J.Obj
          [
            ("n", J.Int c.n);
            ("seed", J.Str (Int64.to_string c.seed));
            ("programs", opt (Option.map (String.concat ",") c.programs));
            ("cap", J.Int c.cap);
            ("prune_n", J.Int c.prune_n);
            ("jobs", J.Int c.jobs);
            ("shard_size", J.Int c.shard_size);
            ("store", opt c.store);
            ("progress", J.Bool c.progress);
            ("metrics", opt c.metrics);
            ("trace", opt c.trace);
            ("backend", J.Str (Core.Config.backend_name (Core.Config.active_backend ())));
            ("checkpoint", J.Bool (Core.Config.checkpointing ()));
            ("checkpoint_interval", J.Int (Core.Config.checkpoint_interval ()));
            ("batch", J.Bool (Core.Config.batching ()));
            ("incremental", J.Bool c.incremental);
            ("coord", opt c.coord);
            ("lease_ttl", J.Float c.lease_ttl);
            ("domain", J.Str (Core.Domain.to_string c.domain));
            ("adaptive", J.Bool c.adaptive);
            ("ci_target", J.Float c.ci_target);
          ] );
      ( "digests",
        J.Obj (List.map (fun (w : Core.Workload.t) -> (w.name, J.Str w.digest)) ws) );
    ]

let open_store dir = Store.open_dir (Filename.concat !work dir)

(* The committed reference file for this (workload, size, seed), if any. *)
let refs_for (t : Wl.t) ~size =
  if !refs_dir = "" then None
  else
    Check.read_refs (Check.refs_path ~dir:!refs_dir t ~size ~seed:(Int64.of_int !seed))

let reference_kind refs = if refs = None then "oracle" else "refs"

let load () =
  let size =
    match Wl.size_of_string !size with Some s -> s | None -> die "bad --size %s" !size
  in
  match Wl.make !workload size with
  | Some t -> (t, size)
  | None -> die "unknown workload %S (try %s)" !workload (String.concat ", " Wl.names)

