(** Machine registers. A register is identified by its class and its index
    within that class's register file. Conventions (caller/callee-saved,
    parameter registers, ...) are described by {!Lsra_target.Machine}. *)

type t

(** [make ~cls idx] names register [idx] of class [cls]. Raises
    [Invalid_argument] on a negative index. *)
val make : cls:Rclass.t -> int -> t

val idx : t -> int
val cls : t -> Rclass.t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Append the printed form ([$r<idx>] or [$f<idx>]) to a buffer;
    {!to_string} is this into a fresh buffer. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
