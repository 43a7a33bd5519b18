(* Online summary statistics (Welford) plus small helpers used by the
   experiment reports. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

(* Inlined, so that a caller's float reaches the update unboxed (the
   release build only). *)
let[@inline] add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. Float.of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.mean
let total t = t.mean *. Float.of_int t.count

let variance t =
  if t.count < 2 then Float.nan else t.m2 /. Float.of_int (t.count - 1)

let stddev t = sqrt (variance t)
let min_value t = if t.count = 0 then Float.nan else t.min
let max_value t = if t.count = 0 then Float.nan else t.max

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let nf = Float.of_int n in
    let mean = a.mean +. (delta *. Float.of_int b.count /. nf) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. Float.of_int a.count *. Float.of_int b.count /. nf)
    in
    {
      count = n;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let mean_of_array xs = mean (of_array xs)

let percentile_of_sorted sorted p =
  if Array.length sorted = 0 then
    invalid_arg "Stats.percentile_of_sorted: empty array";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_of_sorted: p out of range";
  let n = Array.length sorted in
  let rank = p /. 100.0 *. Float.of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. Float.of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_of_sorted sorted p

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" t.count (mean t)
    (stddev t) (min_value t) (max_value t)
