(** Dense bit sets over a fixed universe [0 .. n-1], used as dataflow
    lattice values (register sets for liveness, definition-id sets for
    reaching definitions).

    [add]/[remove]/[diff_into] mutate in place — copy first
    when the original must survive; [union] is pure and suits lattice
    joins directly. *)

type t

val create : int -> t
(** All-empty set over a universe of the given size. *)

val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val equal : t -> t -> bool
val union : t -> t -> t
val diff_into : into:t -> t -> unit
(** Remove every element of the second set from [into]. *)

val is_empty : t -> bool
val iter : (int -> unit) -> t -> unit
val elements : t -> int list
