(* Nearest-rank percentiles. A percentile is only worth printing when at
   least [min_beyond] samples lie beyond it: the p99 of 19 samples is
   just the maximum under another name. *)

let min_beyond = 10

(* 1-based rank of the [p]-th percentile (integer percent) among [n]
   samples: ceil (p * n / 100), at least 1. Integer arithmetic, so
   p99 of 1500 is exactly rank 1485. *)
let rank ~p n = max 1 (((p * n) + 99) / 100)

let beyond ~p n = n - rank ~p n
let supported ~p n = n > 0 && beyond ~p n >= min_beyond

(* [sorted] must be sorted ascending and non-empty. *)
let nearest_rank ~p sorted = sorted.(rank ~p (Array.length sorted) - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* The p50 of a non-empty sample (lower middle for an even count). *)
let median a = nearest_rank ~p:50 (sorted_copy a)
