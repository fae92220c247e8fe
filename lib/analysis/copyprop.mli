(** Block-local copy propagation: after [x := y], uses of [x] within the
    block read [y] until either is redefined. Run before allocation (with
    {!Dce} to sweep the dead copies), as any real frontend pipeline
    would. Returns the number of operands rewritten. *)

open Lsra_ir

val run : Func.t -> int
