(** The benchmark programs of the study (Table II of the paper).

    MiBench ships a small and a large input per program and the paper runs
    the small ones; both are provided here.  [all] is the paper's
    15-program small-input suite; [large] carries the same programs at
    4-10x the dynamic length under names suffixed ["-large"]. *)

val all : Desc.t list
(** Small inputs, in the paper's Table II order: the 11 MiBench programs
    followed by the 4 Parboil programs. *)

val large : Desc.t list
(** The large-input variants, same order. *)

val names : string list
(** Names of [all] (small inputs only). *)

val find : string -> Desc.t option
(** Looks up both suites, e.g. ["crc32"] or ["crc32-large"]. *)
