(** Post-allocation spill cleanup — the paper's §2.4 "alternative
    solution" of letting spill stores and reloads meet. Within each block,
    a reload from a slot that provably mirrors a register becomes a
    register move (deleted by {!Peephole} when it is a self-move), and
    stores to slots never read anywhere in the function are removed.
    Returns the number of instructions rewritten or removed.

    Run after allocation and before {!Peephole}. Safe on any allocator's
    output; only useful for allocators that emit slot traffic. *)

open Lsra_ir

val run : Func.t -> int
