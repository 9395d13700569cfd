(** Figures 4 and 5 analogue: the SDC grid for multi-register injections —
    per program, the single bit-flip campaign plus one campaign for every
    (max-MBF, positive win-size) cluster.  Table III and the RQ2-RQ4
    summaries are all derived from this grid. *)

type row = {
  program : string;
  technique : Core.Technique.t;
  single : Core.Campaign.result;
  cells : (Core.Spec.t * Core.Campaign.result) list;
      (** 10 x 8 clusters, max-MBF-major, Table I window order *)
}

val compute : Study.t -> Core.Technique.t -> row list

val best_multi : row -> Core.Spec.t * Core.Campaign.result
(** The multi-bit cluster with the highest SDC percentage; ties resolved
    toward lower max-MBF then earlier window (the paper reports the
    smallest sufficient configuration). *)

val single_is_pessimistic : ?slack_pp:float -> row -> bool
(** Whether the single bit-flip model gives a pessimistic (conservative)
    SDC estimate for this program.  With [slack_pp], a fixed-slack
    comparison against the best multi-bit cluster.  Without it, a
    multiple-comparison-aware test: no cluster may exceed the single-bit
    SDC percentage by more than a Bonferroni-corrected margin (floor: the
    paper's one-percentage-point resolution); the verdict converges to the
    paper's comparison as n grows. *)

val ci_half_pp : Core.Campaign.result -> float
(** 95% CI half-width of a campaign's SDC share, in percentage points. *)

val min_mbf_reaching_best : row -> win:Core.Win.t -> int option
(** For one window column: the smallest max-MBF whose SDC percentage is
    within one CI half-width of the column's maximum (RQ3). *)
