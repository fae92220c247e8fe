(** A location an instruction reads or writes: either an allocation
    candidate ({!Temp.t}) or a fixed machine register ({!Mreg.t}). Before
    allocation most locations are temporaries; register allocation rewrites
    every temporary location into a register location. *)

type t = Temp of Temp.t | Reg of Mreg.t

val temp : Temp.t -> t
val reg : Mreg.t -> t
val cls : t -> Rclass.t
val equal : t -> t -> bool
val compare : t -> t -> int
val is_temp : t -> bool
val as_temp : t -> Temp.t option
val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [collect walk x] runs an operand walk over [x] (such as
    {!Instr.iter_uses}) and returns the locations it visits, in visiting
    order, as a fresh list. *)
val collect :
  (temp:(Temp.t -> unit) -> reg:(Mreg.t -> unit) -> 'a -> unit) -> 'a -> t list
