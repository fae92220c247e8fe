open Lsra_ir

type seg = { s : int; e : int }

type ref_kind = Read | Write

(* An interval is a view over flat, shared backing arrays: segment starts
   and ends live in [seg_s]/[seg_e] at [soff, soff+slen), references in
   [ref_pos]/[ref_meta] at [roff, roff+rlen). One [Lifetime.compute] call
   produces one backing set shared by every interval of the function, so
   building the intervals allocates no per-segment cells and the scan
   loops walk plain int arrays. [ref_meta] packs depth and kind into one
   int: [(rdepth lsl 1) lor kind_bit], kind_bit 1 = Write. *)
type t = {
  temp : Temp.t;
  seg_s : int array;
  seg_e : int array;
  soff : int;
  slen : int;
  ref_pos : int array;
  ref_meta : int array;
  roff : int;
  rlen : int;
}

let meta_of_ref ~kind ~depth =
  (depth lsl 1) lor (match kind with Read -> 0 | Write -> 1)

let kind_of_meta m = if m land 1 = 1 then Write else Read
let depth_of_meta m = m lsr 1

let of_slices ~temp ~seg_s ~seg_e ~soff ~slen ~ref_pos ~ref_meta ~roff ~rlen =
  { temp; seg_s; seg_e; soff; slen; ref_pos; ref_meta; roff; rlen }

let temp t = t.temp
let n_segs t = t.slen
let seg_start t i = t.seg_s.(t.soff + i)
let seg_end t i = t.seg_e.(t.soff + i)

let ref_pos_at t i = t.ref_pos.(t.roff + i)
let ref_kind_at t i = kind_of_meta t.ref_meta.(t.roff + i)
let ref_depth_at t i = depth_of_meta t.ref_meta.(t.roff + i)

let n_refs t = t.rlen
let is_empty t = t.slen = 0

let start t =
  if is_empty t then invalid_arg "Interval.start: empty"
  else t.seg_s.(t.soff)

let stop t =
  if is_empty t then invalid_arg "Interval.stop: empty"
  else t.seg_e.(t.soff + t.slen - 1)

(* Binary search: slice-relative index of the first segment with
   e >= pos, or [slen]. *)
let seg_search t pos =
  let lo = ref 0 and hi = ref t.slen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.seg_e.(t.soff + mid) < pos then lo := mid + 1 else hi := mid
  done;
  !lo

let covers t pos =
  let i = seg_search t pos in
  i < t.slen && t.seg_s.(t.soff + i) <= pos

let in_hole t pos =
  (not (is_empty t)) && pos > start t && pos < stop t && not (covers t pos)

let next_ref_at t ~cursor ~pos =
  let n = t.rlen in
  let c = ref cursor in
  while !c < n && t.ref_pos.(t.roff + !c) < pos do
    incr c
  done;
  !c

let pp fmt t =
  Format.fprintf fmt "%s:" (Temp.to_string t.temp);
  for i = 0 to t.slen - 1 do
    Format.fprintf fmt " [%d,%d]" (seg_start t i) (seg_end t i)
  done
