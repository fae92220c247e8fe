(** Traditional two-pass binpacking (paper §3.1's baseline): whole
    lifetimes are committed to a register or to memory — lifetime holes
    are exploited, but lifetimes are never split, so no second chance. A
    temporary live across a call cannot be given a caller-saved register,
    which is precisely the behaviour the paper's wc experiment exposes
    (38% more dynamic instructions). No resolution phase is needed: the
    assignment is control-flow-consistent by construction. *)

open Lsra_ir
open Lsra_target

exception Out_of_registers of string

(** Allocate one function in place. [trace] records each decision (see
    {!Trace}); with it absent tracing costs one pointer test per site.
    [liveness] must be [func]'s exact liveness as it stands; run it
    through [Allocator.run], which solves it once. *)
val run :
  ?trace:Trace.t ->
  liveness:Lsra_analysis.Liveness.t ->
  Machine.t ->
  Func.t ->
  Stats.t
