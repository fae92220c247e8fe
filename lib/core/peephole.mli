(** Post-allocation cleanup, as in the paper's experimental setup: both
    allocators are followed by a peephole pass that removes moves made
    redundant by the register assignment (here: self-moves, which the
    binpacking move optimisation and coloring coalescing produce), plus
    nops. Returns the number of instructions removed. *)

open Lsra_ir

val run : Func.t -> int
