(** Allocation temporaries.

    Following the paper, "temporary" covers both source-level variables and
    compiler-generated values; all are register-allocation candidates.
    Identity is the integer [id]; ids are unique within a function and are
    issued by {!Func.fresh_temp}. *)

type t

(** [make ?name ~cls id] builds a temporary. Raises [Invalid_argument] on a
    negative id. Prefer {!Func.fresh_temp} for fresh temporaries. *)
val make : ?name:string -> cls:Rclass.t -> int -> t

val id : t -> int
val cls : t -> Rclass.t
val name : t -> string option
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Append the printed form ([name.id], or [t<id>] when anonymous) to a
    buffer; {!to_string} is this into a fresh buffer. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
