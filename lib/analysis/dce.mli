(** Liveness-based dead-code elimination. The paper runs DCE immediately
    before register allocation in both pipelines; we do the same. *)

open Lsra_ir

(** Remove, round after round, every side-effect-free instruction whose
    defs are all dead temps, until a round would remove nothing; mutates
    the function's blocks. Returns the number of instructions removed and
    the function's liveness as DCE leaves it.

    Liveness is solved once. After each round only the rows of temps that
    a removed instruction used and that were live across a block boundary
    are re-solved ({!Liveness.refresh}), and the rounds stop as soon as no
    row changed. The instructions removed, the count and the returned
    solution are exactly those of solving liveness afresh every round; an
    allocator can take the solution instead of solving again (see
    [Allocator.pipeline]). *)
val run_to_fixpoint : Func.t -> int * Liveness.t
