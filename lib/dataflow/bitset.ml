type t = int array

let bpw = Sys.int_size

let create n = Array.make ((n + bpw - 1) / bpw) 0
let copy = Array.copy
let mem t i = t.(i / bpw) land (1 lsl (i mod bpw)) <> 0
let add t i = t.(i / bpw) <- t.(i / bpw) lor (1 lsl (i mod bpw))
let remove t i = t.(i / bpw) <- t.(i / bpw) land lnot (1 lsl (i mod bpw))
let equal (a : t) b = a = b
let union a b = Array.mapi (fun i x -> x lor b.(i)) a
let diff_into ~into b = Array.iteri (fun i x -> into.(i) <- into.(i) land lnot x) b
let is_empty t = Array.for_all (fun x -> x = 0) t

let iter f t =
  Array.iteri
    (fun w bits ->
      if bits <> 0 then
        for j = 0 to bpw - 1 do
          if bits land (1 lsl j) <> 0 then f ((w * bpw) + j)
        done)
    t

let elements t =
  let l = ref [] in
  iter (fun i -> l := i :: !l) t;
  List.rev !l
