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
    Table 3. [liveness], when given, must be [func]'s exact liveness as it
    stands (see {!Binpack.analyse}); it replaces the solve of the first
    coloring round, the only one that sees the function unchanged. *)
val run :
  ?trace:Trace.t ->
  ?liveness:Lsra_analysis.Liveness.t ->
  Machine.t ->
  Func.t ->
  Stats.t
