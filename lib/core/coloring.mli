(** Graph-coloring register allocation: George and Appel's iterated
    register coalescing, the comparison point of the paper's evaluation
    (§3). Adjacency lives in a lower-triangular bit matrix and the two
    register classes are solved as separate coloring problems, both as the
    paper describes for its Alpha implementation. Spill code inserted by
    the spill-and-rebuild loop is tagged with the [Evict] phase so the
    simulator's Figure-3 categorisation covers both allocators. *)

open Lsra_ir
open Lsra_target

exception Coloring_failure of string

(** Allocate one function in place. [trace] records spill-slot grants,
    spill/reload insertions and the final color of every temporary (see
    {!Trace}). [coloring_iterations] and [interference_edges] feed
    Table 3. [liveness] must be [func]'s exact liveness as it stands; run
    it through [Allocator.run], which solves it once. It seeds the first
    integer round, the only one that sees the function unchanged; the
    floating-point class and every round after a spill rewrite solve
    again, inside the allocation (not under {!Stats.Liveness}). *)
val run :
  ?trace:Trace.t ->
  liveness:Lsra_analysis.Liveness.t ->
  Machine.t ->
  Func.t ->
  Stats.t
