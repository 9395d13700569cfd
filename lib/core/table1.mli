(** The parameter grid of Table I and the 182-campaign experiment plan.

    Per program the paper runs, for each technique: one single bit-flip
    campaign plus one campaign per (max-MBF, win-size) pair —
    1 + 10 x 9 = 91 campaigns, 182 over both techniques. *)

val max_mbf_values : int list
(** m1..m10: 2, 3, 4, 5, 6, 7, 8, 9, 10, 30. *)

val win_values : Win.t list
(** w1..w9: 0, 1, 4, RND(2-10), 10, RND(11-100), 100, RND(101-1000), 1000. *)

val win_positive : Win.t list
(** w2..w9 — the windows used for multi-register experiments (§IV-C). *)

val specs : Technique.t -> Spec.t list
(** Single first, then the 90 multiple-bit clusters for the technique in
    max-MBF-major order: 91 specs. *)

val all_specs : Spec.t list
(** Both techniques: the paper's 182 campaigns per program. *)
