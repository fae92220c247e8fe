(** Dense indexing of a machine's registers across both classes, for
    array-based allocator state. *)

open Lsra_ir
open Lsra_target

type t

val create : Machine.t -> t

(** Total register count across classes; flat indices live in
    [0, total). *)
val total : t -> int

val of_reg : t -> Mreg.t -> int

(** The register at a flat index. Every call returns the same value,
    built once by {!create}, so it allocates nothing. *)
val to_reg : t -> int -> Mreg.t

(** [Loc.Reg (to_reg t i)], likewise built once by {!create}. *)
val to_loc : t -> int -> Loc.t

(** Flat indices of all registers of a class, in register order. The list
    is built once at {!create} and shared between calls. *)
val of_cls : t -> Rclass.t -> int list

(** [cls_range t cls] is the half-open flat-index range [(lo, hi)] of the
    class; equal to [of_cls] as a set, but allocation-free to iterate. *)
val cls_range : t -> Rclass.t -> int * int
