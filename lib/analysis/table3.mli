(** Table III analogue: per program and technique, the multi-bit cluster
    (max-MBF, win-size) with the highest SDC percentage. *)

type row = {
  program : string;
  read_best : Core.Spec.t;
  read_sdc_pct : float;
  write_best : Core.Spec.t;
  write_sdc_pct : float;
}

val compute : Study.t -> row list
