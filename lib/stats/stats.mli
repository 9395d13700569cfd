(** Estimation helpers for fault-injection campaigns.

    The paper reports outcome percentages with 95% confidence intervals
    (§III-E).  [Proportion] provides the binomial estimators used for every
    table and figure; [Histogram] accumulates the activated-error
    distributions behind Fig. 3; [Running] is a small streaming
    mean/variance accumulator for the performance benches. *)

module Proportion : sig
  type ci = {
    p : float;  (** point estimate, in \[0, 1\] *)
    lo : float;  (** lower bound of the interval, clamped to \[0, 1\] *)
    hi : float;  (** upper bound of the interval, clamped to \[0, 1\] *)
  }

  val wald : ?z:float -> successes:int -> trials:int -> unit -> ci
  (** Normal-approximation interval, the estimator used in the paper's
      error bars.  Requires [trials > 0]. *)

  val wilson : ?z:float -> successes:int -> trials:int -> unit -> ci
  (** Wilson score interval; better behaved at small [trials] or extreme
      proportions.  Requires [trials > 0]. *)

  val half_width : ci -> float
  (** [(hi - lo) / 2], the ± value quoted in the paper. *)

  val percent : ci -> float * float * float
  (** [(p, lo, hi)] scaled to percentages. *)

  val plan_half_width : ?z:float -> p:float -> int -> float
  (** Unclamped Wilson half-width at a real-valued proportion [p] and
      trial count; strictly decreasing in the trial count for fixed [p].
      The planning-side analogue of [half_width (wilson ...)]. *)

  val needed_trials : ?z:float -> p:float -> half_width:float -> unit -> int
  (** Least [n] such that [plan_half_width ~p n <= half_width] — the
      sample size at which a proportion near [p] reaches the requested
      Wilson CI half-width.  Inverse of [plan_half_width] in the sense
      that [plan_half_width ~p (needed_trials ~p ~half_width ())
      <= half_width] while any smaller [n] is still too wide.
      Requires [p] in \[0, 1\] and [half_width > 0]. *)

  val met : ci -> target:float -> bool
  (** Stopping rule: has this interval's half-width reached [target]? *)
end

module Histogram : sig
  type t
  (** Counts over small non-negative integer keys. *)

  val create : unit -> t
  val add : t -> int -> unit

  val add_count : t -> int -> int -> unit
  (** [add_count t key c] records [c] occurrences of [key] at once; how
      shard histograms are folded back together after a parallel run. *)

  val count : t -> int -> int
  val total : t -> int

  val max_key : t -> int
  (** Largest key with a non-zero count; -1 when empty. *)

  val range_count : t -> lo:int -> hi:int -> int
  (** Total count over the inclusive key range. *)

  val merge : t -> t -> t
  (** Pointwise sum; inputs are unchanged. *)

  val to_alist : t -> (int * int) list
  (** Key-sorted (key, count) pairs, zero counts omitted. *)
end

module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val n : t -> int
  val mean : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than two observations. *)
end
