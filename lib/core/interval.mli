(** Lifetime intervals with holes.

    A temporary's lifetime is the union of disjoint, sorted segments in
    linear positions; the gaps between consecutive segments are its
    {e lifetime holes} (paper §2.1). References list every textual
    occurrence with its kind and loop depth, for the eviction-priority
    heuristic.

    Representation: an interval is a {e slice view} over flat int arrays
    shared by every interval of a function ([Lifetime.compute] builds one
    backing set per function from its reused arena). The scan loops
    therefore iterate segments and references by index over plain int
    arrays — no list walking and no per-segment heap cells. *)

open Lsra_ir

type seg = { s : int; e : int }
type ref_kind = Read | Write
type t

(** Zero-copy view over shared backing arrays: segments at
    [soff, soff+slen) of [seg_s]/[seg_e], references at [roff, roff+rlen)
    of [ref_pos]/[ref_meta] ([ref_meta] packed with {!meta_of_ref}).
    The caller guarantees sortedness and disjointness; no checks run. *)
val of_slices :
  temp:Temp.t ->
  seg_s:int array ->
  seg_e:int array ->
  soff:int ->
  slen:int ->
  ref_pos:int array ->
  ref_meta:int array ->
  roff:int ->
  rlen:int ->
  t

(** [meta_of_ref ~kind ~depth] packs a reference's kind and loop depth
    into the single int stored per reference. *)
val meta_of_ref : kind:ref_kind -> depth:int -> int

val temp : t -> Temp.t

(** Index-based segment access: [n_segs], and the start/end of the [i]th
    segment (0-based, in increasing position order). *)
val n_segs : t -> int

val seg_start : t -> int -> int
val seg_end : t -> int -> int

val is_empty : t -> bool

(** First position of the lifetime. Raises on empty intervals. *)
val start : t -> int

(** Last position of the lifetime. Raises on empty intervals. *)
val stop : t -> int

(** Is [pos] inside a segment (the value is or may be needed)? *)
val covers : t -> int -> bool

(** Is [pos] strictly inside the lifetime but outside every segment? *)
val in_hole : t -> int -> bool

(** [next_ref_at t ~cursor ~pos] advances a monotone cursor to the first
    reference at or after [pos]; returns the new cursor (= [n_refs] when
    exhausted). *)
val next_ref_at : t -> cursor:int -> pos:int -> int

(** Allocation-free reference access by cursor index. *)
val ref_pos_at : t -> int -> int

val ref_kind_at : t -> int -> ref_kind
val ref_depth_at : t -> int -> int
val n_refs : t -> int
val pp : Format.formatter -> t -> unit
