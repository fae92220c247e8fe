(** Linear numbering of a function's instructions.

    The blocks' layout order is flattened into one instruction sequence
    (each block contributes its body followed by its terminator). Each
    instruction index [k] owns four consecutive positions:

    - [boundary_pos k]: before the instruction — where spill code inserted
      "before k" conceptually lives, and where block-top boundaries fall;
    - [use_pos k]: the instruction's reads;
    - [def_pos k]: its writes;
    - [after_pos k]: after the instruction — block-bottom boundaries.

    Lifetimes, holes and register busy segments are all measured in these
    positions. *)

open Lsra_ir

type t

val number : Func.t -> t
val func : t -> Func.t

(** Instruction count, terminators included. *)
val n_instrs : t -> int

(** Exclusive upper bound on positions. *)
val n_positions : t -> int

(** Linear index of the first/last instruction of a block (by linear block
    index); the last is the terminator. *)
val first_instr : t -> int -> int

val last_instr : t -> int -> int
val block_of_instr : t -> int -> int
val boundary_pos : int -> int
val use_pos : int -> int
val def_pos : int -> int
val after_pos : int -> int
val block_top : t -> int -> int
val block_bottom : t -> int -> int
