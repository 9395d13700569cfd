(* A fixed reference workload that measures how fast the host is right
   now.  It is a tiny register-machine interpreter over a 64 KiB byte
   memory, with a page copy after every run of its program: the same
   kinds of work as the injector's VM loop and page restores, but no code
   from lib/, so no change there can move it.  On a shared host every
   timed pass is expressed relative to it (see [run.py]). *)

type op =
  | Add of int * int * int
  | Xor of int * int * int
  | Mul of int * int * int
  | Load of int * int
  | Store of int * int
  | Dec of int
  | Jnz of int * int

(* r1 walks memory with stride r2; r4 mixes what it reads; r6 counts. *)
let program =
  [| Add (1, 1, 2); Load (3, 1); Xor (4, 4, 3); Mul (4, 4, 5); Store (4, 1); Dec 6; Jnz (6, 0) |]

let mask = 0xffff

let interpret regs mem =
  let pc = ref 0 in
  let n = Array.length program in
  while !pc < n do
    match Array.unsafe_get program !pc with
    | Add (d, a, b) ->
        regs.(d) <- (regs.(a) + regs.(b)) land 0x3fffffff;
        incr pc
    | Xor (d, a, b) ->
        regs.(d) <- regs.(a) lxor regs.(b);
        incr pc
    | Mul (d, a, b) ->
        regs.(d) <- (regs.(a) * regs.(b)) land 0x3fffffff;
        incr pc
    | Load (d, a) ->
        regs.(d) <- Char.code (Bytes.get mem (regs.(a) land mask));
        incr pc
    | Store (a, b) ->
        Bytes.set mem (regs.(a) land mask) (Char.unsafe_chr (regs.(b) land 0xff));
        incr pc
    | Dec r ->
        regs.(r) <- regs.(r) - 1;
        incr pc
    | Jnz (r, target) -> if regs.(r) <> 0 then pc := target else incr pc
  done

let rounds = 2500
let iterations = 2_000

(* One timed run of the reference workload, in seconds. *)
let time () =
  let mem = Bytes.make (mask + 1) '\000' and pristine = Bytes.make (mask + 1) '\001' in
  let regs = Array.make 8 0 in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    regs.(2) <- 7919;
    regs.(5) <- 31 + round;
    regs.(6) <- iterations;
    interpret regs mem;
    for page = 0 to 15 do
      let off = ((round * 17) + (page * 256 * 13)) land (mask - 255) in
      Bytes.blit pristine off mem off 256
    done
  done;
  Unix.gettimeofday () -. t0
