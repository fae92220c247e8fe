(** The lifetimes-and-holes pass (paper §2.1): a single reverse sweep over
    the linear order that produces, for every temporary, its lifetime
    segments (gaps = holes), and for every machine register the segments
    during which a convention makes it unavailable (explicit register
    operands, call argument/clobber effects).

    The production path builds everything in the calling domain's
    {!Workspace} arena — flat int event buffers bucketed into per-temp
    slices of shared output arrays — so steady-state heap allocation per
    function is a few exact-size arrays, not per-segment list cells. *)

open Lsra_ir
open Lsra_analysis

type t

val compute : Regidx.t -> Func.t -> Liveness.t -> Loop.t -> t

val linear : t -> Linear.t
val interval : t -> Temp.t -> Interval.t
val interval_of_id : t -> int -> Interval.t

(** The temporary's name in trace events, by id. *)
val temp_name : t -> int -> string

(** Busy segments of a register, by flat index, sorted and disjoint. *)
val reg_busy : t -> int -> Interval.seg array

val n_temps : t -> int
