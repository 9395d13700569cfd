(** Register types of the intermediate representation.

    The IR mirrors the LLVM types that LLFI-style injectors target.  Every
    register value is a bit pattern of its type's width; bit-flips are
    defined uniformly over those widths.

    Substitutions versus real LLVM (recorded in DESIGN.md):
    - [I64] is 63 bits wide because integer values are carried in native
      OCaml ints.  The benchmarks use it only incidentally.
    - [Ptr] is 32 bits wide: the programs model an embedded 32-bit address
      space (MiBench is an embedded suite), and the VM arena fits in it. *)

type t = I1 | I8 | I16 | I32 | I64 | F64 | Ptr

val width : t -> int
(** Bit width used for masking and for drawing bit-flip positions:
    1, 8, 16, 32, 63, 64 and 32 respectively. *)

val bytes : t -> int
(** Width of a memory access or an output record of this type, in bytes:
    1, 1, 2, 4, 8, 8, 4. *)

val is_float : t -> bool

val equal : t -> t -> bool
val to_string : t -> string
