(** Instruction source operands: a readable location or an immediate. *)

type t = Loc of Loc.t | Int of int | Float of float

val temp : Temp.t -> t
val reg : Mreg.t -> t
val loc : Loc.t -> t
val int : int -> t
val float : float -> t
val cls : t -> Rclass.t
val as_loc : t -> Loc.t option

(** [iter ~temp ~reg o] calls [temp] or [reg] on the location [o] reads,
    if any; immediates call neither. Allocates nothing. *)
val iter : temp:(Temp.t -> unit) -> reg:(Mreg.t -> unit) -> t -> unit
val equal : t -> t -> bool

(** Floats print in OCaml's exact hexadecimal notation ([%h]), so the
    text parses back to the same bits. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
val pp : Format.formatter -> t -> unit
