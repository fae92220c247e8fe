(** Poletto/Engler/Kaashoek-style linear scan (paper §4, related work):
    convex intervals without holes, an active list, spill-furthest-end,
    whole lifetimes to memory, and registers reserved up front for spill
    code. The weakest but fastest of the four allocators; included as the
    family's original point of comparison. *)

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
