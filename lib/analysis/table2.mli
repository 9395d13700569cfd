(** Table II analogue: per-program candidate-instruction counts.

    Reports each workload's dynamic instruction count and the number of
    inject-on-read / inject-on-write candidates in the golden run.  The
    paper's structural property — read candidates exceed write candidates
    because stores, branches and outputs have no destination register —
    must hold for every program.

    [pred_reads]/[pred_writes] are the {e static} counts predicted by
    {!Dataflow.Candidates.predict} from the program's IR weighted by the
    golden-run block profile; they must equal the dynamic counts exactly.
    {!compute} runs each program's golden run once more on the seed
    interpreter to count its blocks ({!Core.Workload.profile}). *)

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

val compute : Study.t -> row list
