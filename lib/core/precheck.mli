(** Pre-allocation input validation: the well-formedness invariants the
    allocators rely on beyond {!Lsra_ir.Func.validate} — no pre-existing
    spill code, block-local machine-register live ranges (parameters at
    entry excepted), registers that exist on the target, call arguments
    passed only in the target's argument registers, and no temporaries
    live into the entry block. *)

open Lsra_ir
open Lsra_target

exception Rejected of string

(** Raises {!Rejected} with a description of the first violation. With
    [~allow_undefined:true] temporaries used before definition pass: the
    differential oracle's verifier reports those itself. *)
val run : ?allow_undefined:bool -> Machine.t -> Func.t -> unit

val check : Machine.t -> Func.t -> (unit, string) result
