type t = {
  outcome : Outcome.t;
  activated : int;
  first : Injector.injection option;
  dyn_count : int;
  output : string;
}

let m_experiments = Obs.Metrics.counter "onebit_injector_experiments_total"
let m_activations = Obs.Metrics.counter "onebit_injector_activations_total"

(* Per-domain experiment counters, dense over Domain.all so the metrics
   smoke can assert every series exists. *)
let m_domain =
  Array.of_list
    (List.map
       (fun d ->
         Obs.Metrics.counter
           ~labels:[ ("domain", Domain.to_string d) ]
           "onebit_inj_domain_total")
       Domain.all)

(* The reference oracle: the seed interpreter under the injector's
   hooks, from the top, never restoring and never stopping early. *)
let run_oracle (workload : Workload.t) inj =
  let hooks = Injector.hooks inj in
  match Injector.domain inj with
  | Domain.Reg -> Vm.Exec.run ~hooks ~budget:workload.budget workload.prog
  | Domain.Mem ->
      let mem = Vm.Memory.clone workload.prog.Vm.Program.mem_template in
      Injector.bind_mem inj ~mapped:workload.Workload.mem_mapped ~mem;
      Vm.Exec.run ~hooks ~mem ~budget:workload.budget workload.prog
  | Domain.Code ->
      (* The interpreter executes the injector's private image directly:
         a flip mutates the image's instruction arrays in place and is
         visible from the next fetch. *)
      let image = Vm.Codeflip.image workload.prog in
      Injector.bind_code inj ~sites:workload.Workload.code_sites ~image ();
      Vm.Exec.run ~hooks ~budget:workload.budget image

let run_raw ?(checkpoint = true) (workload : Workload.t) inj =
  match Config.active_backend () with
  | Config.Seed -> run_oracle workload inj
  | Config.Compiled ->
      (* One of the workload's memories: resetting it costs
         O(dirty pages), and Mem flips dirty their page, so the next
         experiment's reset or restore undoes them like any store. *)
      Workload.with_mem workload @@ fun mem ->
      let ev = Injector.events inj in
      let code =
        match Injector.domain inj with
        | Domain.Code ->
            (* Mutated experiments run on a throwaway fork; each image
               flip is mirrored as a micro-op patch, and the workload's
               code stays pristine. *)
            let image = Vm.Codeflip.image workload.prog in
            let fork = Vm.Code.fork workload.code in
            Injector.bind_code inj ~sites:workload.Workload.code_sites ~image
              ~apply:(fun ~fidx ~bidx ~idx p ->
                Vm.Code.patch fork ~fidx ~bidx ~idx p)
              ();
            fork
        | Domain.Mem ->
            Injector.bind_mem inj ~mapped:workload.Workload.mem_mapped ~mem;
            workload.code
        | Domain.Reg -> workload.code
      in
      (* The nearest checkpoint at or before the first flip's target, on
         the event schedule's watch axis: candidate ordinal (Reg) or
         dynamic index (Mem/Code).  The prefix it skips fires no events
         and consumes no injector randomness, so the suffix run is
         bit-identical to full execution. *)
      let set =
        if checkpoint then Some workload.Workload.checkpoints else None
      in
      let point =
        match (set, Injector.first_target inj) with
        | Some set, Some target ->
            Vm.Checkpoint.select set ~axis:ev.Vm.Code.watch ~target
        | _ -> None
      in
      (* The same set arms the early exits once the injector is done: a
         patched Code fork takes only the cycle exit. *)
      match point with
      | Some point ->
          Vm.Code.resume ~events:ev ~mem ~point ~orig:workload.Workload.code
            ?exits:set ~budget:workload.budget code
      | None ->
          Vm.Memory.reset mem;
          Vm.Code.run ~events:ev ~mem ?exits:set ~budget:workload.budget code

(* Classification + bookkeeping, exported so the benchmark can time it
   apart from [run_raw]. *)
let conclude (workload : Workload.t) inj (res : Vm.Exec.result) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_experiments;
    Obs.Metrics.add m_activations (Injector.activated inj);
    Obs.Metrics.incr m_domain.(Domain.index (Injector.domain inj))
  end;
  {
    outcome = Outcome.classify ~golden_output:workload.Workload.golden.output res;
    activated = Injector.activated inj;
    first = Injector.first_injection inj;
    dyn_count = res.dyn_count;
    output = res.output;
  }

let run_inj workload inj = conclude workload inj (run_raw workload inj)

let run ?spacing workload spec rng =
  let candidates = Workload.candidates workload spec in
  let inj = Injector.create ~spec ~candidates ?spacing rng in
  run_inj workload inj

let run_at workload spec ~first rng =
  let candidates = Workload.candidates workload spec in
  let inj = Injector.create ~spec ~candidates ~first rng in
  run_inj workload inj
