(* Pure statistics helpers shared by the benchmark and its self-tests.
   No simulator dependency, so the rules below are testable on their
   own. *)

(* Nearest-rank percentile over an ascending array: the smallest
   sample with at least [p]% of the samples at or below it. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n r)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None else Some sorted.(rank ~n p - 1)

(* Samples strictly beyond the [p]th-percentile rank. *)
let beyond ~n p = if n = 0 then 0 else n - rank ~n p

(* A percentile is reported only when at least ten samples lie beyond
   it; a p99 therefore needs at least 1000 samples. *)
let min_beyond = 10

let reportable ~n p = beyond ~n p >= min_beyond

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Median, as Python's [statistics.median]. *)
let median xs =
  let s = sorted_copy (Array.of_list xs) in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Seeded Fisher-Yates shuffle, in place: workloads fix their op
   composition and let the seed choose the order. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Failed ops over attempted ops; 0 when nothing was attempted. *)
let failure_frac ~failed ~attempted =
  if attempted <= 0 then 0. else float_of_int failed /. float_of_int attempted

(* A count normalised by its base; a ratio with an empty base reads 0
   rather than nan, so a layer a workload never touches prints 0. *)
let per ~base x = if base <= 0. then 0. else x /. base

let per_op ~ops x = per ~base:(float_of_int ops) x
