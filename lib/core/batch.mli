(** Suffix-batching counters.

    Experiments run one at a time ({!Experiment.run}), so no experiment
    is ever batched.  The benchmark's [batch.*] rows still read these
    counters. *)

val stats : unit -> int * int
(** [(groups, batched experiments)]: always [(0, 0)]. *)
