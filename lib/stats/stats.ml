module Proportion = struct
  type ci = { p : float; lo : float; hi : float }

  let z95 = 1.959963984540054

  let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

  let wald ?(z = z95) ~successes ~trials () =
    if trials <= 0 then invalid_arg "Proportion.wald: trials must be positive";
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let half = z *. sqrt (p *. (1. -. p) /. n) in
    { p; lo = clamp01 (p -. half); hi = clamp01 (p +. half) }

  let wilson ?(z = z95) ~successes ~trials () =
    if trials <= 0 then
      invalid_arg "Proportion.wilson: trials must be positive";
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let centre = (p +. (z2 /. (2. *. n))) /. denom in
    let half =
      z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom
    in
    { p; lo = clamp01 (centre -. half); hi = clamp01 (centre +. half) }

  let half_width ci = (ci.hi -. ci.lo) /. 2.
  let percent ci = (100. *. ci.p, 100. *. ci.lo, 100. *. ci.hi)

  (* Wilson half-width at a real-valued proportion [p] and trial count
     [n]; the unclamped analogue of [half_width (wilson ...)].  Strictly
     decreasing in [n] for fixed [p], which is what makes the planner's
     binary search and the adaptive engine's stopping rule sound. *)
  let plan_half_width ?(z = z95) ~p n =
    let n = float_of_int n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom

  let needed_trials ?(z = z95) ~p ~half_width () =
    if not (Float.is_finite p) || p < 0. || p > 1. then
      invalid_arg "Proportion.needed_trials: p must be in [0, 1]";
    if not (half_width > 0.) then
      invalid_arg "Proportion.needed_trials: half_width must be positive";
    if plan_half_width ~z ~p 1 <= half_width then 1
    else begin
      (* Exponential bracket then bisect: find the least n with
         hw(n) <= half_width.  hw is monotone decreasing in n. *)
      let hi = ref 2 in
      while plan_half_width ~z ~p !hi > half_width && !hi < max_int / 2 do
        hi := !hi * 2
      done;
      let lo = ref (!hi / 2) and hi = ref !hi in
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if plan_half_width ~z ~p mid <= half_width then hi := mid
        else lo := mid
      done;
      !hi
    end

  let met ci ~target = half_width ci <= target
end

module Histogram = struct
  type t = { mutable counts : int array; mutable total : int }

  let create () = { counts = Array.make 16 0; total = 0 }

  let ensure t key =
    let len = Array.length t.counts in
    if key >= len then begin
      let counts = Array.make (max (key + 1) (2 * len)) 0 in
      Array.blit t.counts 0 counts 0 len;
      t.counts <- counts
    end

  let add t key =
    if key < 0 then invalid_arg "Histogram.add: negative key";
    ensure t key;
    t.counts.(key) <- t.counts.(key) + 1;
    t.total <- t.total + 1

  let add_count t key count =
    if key < 0 then invalid_arg "Histogram.add_count: negative key";
    if count < 0 then invalid_arg "Histogram.add_count: negative count";
    if count > 0 then begin
      ensure t key;
      t.counts.(key) <- t.counts.(key) + count;
      t.total <- t.total + count
    end

  let count t key =
    if key < 0 || key >= Array.length t.counts then 0 else t.counts.(key)

  let total t = t.total

  let max_key t =
    let rec scan i = if i < 0 then -1 else if t.counts.(i) > 0 then i else scan (i - 1) in
    scan (Array.length t.counts - 1)

  let range_count t ~lo ~hi =
    let acc = ref 0 in
    for k = max lo 0 to min hi (Array.length t.counts - 1) do
      acc := !acc + t.counts.(k)
    done;
    !acc

  let merge a b =
    let t = create () in
    let keep src =
      Array.iteri
        (fun k c ->
          if c > 0 then begin
            ensure t k;
            t.counts.(k) <- t.counts.(k) + c;
            t.total <- t.total + c
          end)
        src.counts
    in
    keep a;
    keep b;
    t

  let to_alist t =
    let acc = ref [] in
    for k = Array.length t.counts - 1 downto 0 do
      if t.counts.(k) > 0 then acc := (k, t.counts.(k)) :: !acc
    done;
    !acc
end

module Running = struct
  (* Welford's online algorithm. *)
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let n t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
end
