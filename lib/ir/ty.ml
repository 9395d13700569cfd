type t = I1 | I8 | I16 | I32 | I64 | F64 | Ptr

let width = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 63
  | F64 -> 64
  | Ptr -> 32

let bytes = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | Ptr -> 4
  | I64 | F64 -> 8

let is_float = function F64 -> true | I1 | I8 | I16 | I32 | I64 | Ptr -> false
let equal (a : t) b = a = b

let to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F64 -> "f64"
  | Ptr -> "ptr"
