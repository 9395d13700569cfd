(* Unified runtime configuration.

   Every ONEBIT_* environment variable is resolved here and nowhere
   else; CLI flags override by way of [override].  Precedence is
   flag > environment > default, and each resolver preserves the
   historical lenient parsing (an unparsable value falls back rather
   than failing, ONEBIT_JOBS=0 means one worker per core, an empty
   ONEBIT_STORE means no store). *)

type backend = Seed | Compiled

let backend_name = function Seed -> "seed" | Compiled -> "compiled"

(* Lenient, like every other resolver: unknown values fall back. *)
let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seed" | "interp" | "interpreter" -> Some Seed
  | "compiled" | "code" | "vm" -> Some Compiled
  | _ -> None

type t = {
  n : int;
  seed : int64;
  programs : string list option;
  cap : int;
  prune_n : int;
  jobs : int;
  shard_size : int;
  store : string option;
  progress : bool;
  metrics : string option;
  trace : string option;
  incremental : bool;
  coord : string option;
  lease_ttl : float;
  domain : Domain.t;
  adaptive : bool;
  ci_target : float;
}

let default =
  {
    n = 100;
    seed = 20170626L;
    programs = None;
    cap = 400;
    prune_n = 40;
    jobs = 1;
    shard_size = 25;
    store = None;
    progress = false;
    metrics = None;
    trace = None;
    incremental = false;
    coord = None;
    lease_ttl = 30.;
    domain = Domain.Reg;
    adaptive = false;
    ci_target = 0.02;
  }

(* [jobs] semantics shared by env and flags: a positive value is taken
   literally, 0 (or an unparsable env value) means one worker per
   recommended domain.  ([Core.Domain] is the fault domain; OCaml's
   multicore domains are reached as [Stdlib.Domain].) *)
let resolve_jobs j =
  if j > 0 then j else Stdlib.Domain.recommended_domain_count ()

let of_env ?(getenv = Sys.getenv_opt) () =
  let int name fallback =
    match Option.bind (getenv name) int_of_string_opt with
    | Some v -> v
    | None -> fallback
  in
  let path name =
    match getenv name with Some p when p <> "" -> Some p | _ -> None
  in
  let flag name fallback =
    match getenv name with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> fallback
  in
  {
    n = int "ONEBIT_N" default.n;
    seed =
      (match Option.bind (getenv "ONEBIT_SEED") Int64.of_string_opt with
      | Some s -> s
      | None -> default.seed);
    programs =
      (* Items are trimmed and empty ones dropped; an empty list is unset,
         like every other empty ONEBIT_* variable. *)
      (match getenv "ONEBIT_PROGRAMS" with
      | None -> None
      | Some s -> (
          match
            List.filter (( <> ) "")
              (List.map String.trim (String.split_on_char ',' s))
          with
          | [] -> None
          | names -> Some names));
    cap = int "ONEBIT_CAP" default.cap;
    prune_n = int "ONEBIT_PRUNE_N" default.prune_n;
    jobs =
      (match getenv "ONEBIT_JOBS" with
      | None -> default.jobs
      | Some s -> (
          match int_of_string_opt s with
          | Some j when j > 0 -> j
          | Some _ | None -> Stdlib.Domain.recommended_domain_count ()));
    shard_size =
      (match Option.bind (getenv "ONEBIT_SHARD") int_of_string_opt with
      | Some s when s > 0 -> s
      | Some _ | None -> default.shard_size);
    store = path "ONEBIT_STORE";
    progress = flag "ONEBIT_PROGRESS" default.progress;
    metrics = path "ONEBIT_METRICS";
    trace = path "ONEBIT_TRACE";
    incremental = flag "ONEBIT_INCREMENTAL" default.incremental;
    coord = path "ONEBIT_COORD";
    lease_ttl =
      (match Option.bind (getenv "ONEBIT_LEASE_TTL") float_of_string_opt with
      | Some ttl when ttl > 0. -> ttl
      | Some _ | None -> default.lease_ttl);
    domain =
      (match Option.bind (getenv "ONEBIT_DOMAIN") Domain.of_string with
      | Some d -> d
      | None -> default.domain);
    adaptive = flag "ONEBIT_ADAPTIVE" default.adaptive;
    ci_target =
      (match Option.bind (getenv "ONEBIT_CI") float_of_string_opt with
      | Some t when t > 0. && t < 1. -> t
      | Some _ | None -> default.ci_target);
  }

(* [shard_size] semantics shared by every driver: a positive value is
   taken literally, anything else means the configured ONEBIT_SHARD
   size (the rule [override] applies to a flag), so the engine, the
   adaptive sampler and the fleet coordinator tile — and key their
   store records — identically. *)
let resolve_shard_size = function
  | Some s when s > 0 -> s
  | Some _ | None -> (of_env ()).shard_size

let override ?n ?jobs ?shard_size ?store ?metrics ?trace ?incremental ?coord
    ?lease_ttl ?domain ?adaptive ?ci_target t =
  let opt v fallback = Option.value v ~default:fallback in
  {
    t with
    n = opt n t.n;
    jobs = (match jobs with Some j -> resolve_jobs j | None -> t.jobs);
    shard_size =
      (match shard_size with Some s when s > 0 -> s | Some _ -> t.shard_size | None -> t.shard_size);
    store = (match store with Some d -> Some d | None -> t.store);
    metrics = (match metrics with Some p -> Some p | None -> t.metrics);
    trace = (match trace with Some p -> Some p | None -> t.trace);
    incremental = opt incremental t.incremental;
    coord = (match coord with Some c -> Some c | None -> t.coord);
    lease_ttl =
      (match lease_ttl with
      | Some ttl when ttl > 0. -> ttl
      | Some _ | None -> t.lease_ttl);
    domain = opt domain t.domain;
    adaptive = opt adaptive t.adaptive;
    ci_target =
      (match ci_target with
      | Some c when c > 0. && c < 1. -> c
      | Some _ | None -> t.ci_target);
  }

(* The backend [Experiment.run_raw] dispatches on, resolved once, when
   the module initialises, and read-only after that: worker domains read
   it concurrently, so it is a plain value (two domains forcing one
   [Lazy.t] raise [Lazy.Undefined]).  Only the benchmark's refs command
   sets ONEBIT_BACKEND, to regenerate its references on the oracle. *)
let active =
  match Option.bind (Sys.getenv_opt "ONEBIT_BACKEND") backend_of_string with
  | Some b -> b
  | None -> Compiled

let active_backend () = active

(* Views the benchmark's configuration manifest reads.  The compiled
   backend always restores golden-prefix checkpoints and runs its
   experiments one at a time; the seed oracle never restores. *)
let checkpointing () = active_backend () = Compiled
let checkpoint_interval () = Vm.Checkpoint.interval
let batching () = false

let install t = Obs.install_sink ?metrics:t.metrics ?trace:t.trace ()
