(** Fault-tolerance coverage under single and multiple bit-flip models.

    The paper's future work proposes taking a specific fault-tolerance
    technique and measuring its coverage under both fault models.  This
    analysis does that for the SWIFT-style duplication pass of
    [Onebit.Harden]: each program is measured unhardened and hardened (full
    and light check placement), under the single-bit model and two
    representative multi-bit clusters, for both techniques. *)

type variant = Baseline | Swift_full | Swift_light | Tmr

type row = {
  program : string;
  variant : variant;
  technique : Core.Technique.t;
  dyn_overhead : float;  (** golden dynamic length vs. baseline *)
  results : (Core.Spec.t * Core.Campaign.result) list;
      (** single, then (m=2, w=1) and (m=3, w=1) *)
}

val compute :
  ?n:int -> ?seed:int64 -> ?programs:string list -> unit -> row list
(** Defaults: n = 200, the five programs qsort, crc32, sha, fft, spmv
    (diverse integer/float/pointer mixes), both techniques, all four
    variants.  Rows are grouped program-major, baseline first. *)

val variant_name : variant -> string
