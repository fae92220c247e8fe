(** Exact spill-cost minimisation by branch and bound: the quality
    ladder's measured ceiling (ROADMAP item 3, after the Castañeda
    Lozano/Schulte survey of combinatorial register allocation).

    The model is whole-lifetime binpacking over the CSR interval slices
    of {!Lifetime}: every non-empty interval is either {e assigned} a
    register for its entire lifetime (holes and all, exploiting lifetime
    holes exactly as two-pass binpacking does) or {e spilled} to memory,
    in which case each textual reference costs one spill instruction (a
    load before a read, a store after a write) through a scratch register
    that must be free at that reference's position. The search minimises
    the number of spill instructions — the same static count
    {!Stats.total_spill} reports for every heuristic rung — and prunes
    with an admissible lower bound: the sum, over the undecided suffix of
    intervals, of each interval's cheapest conceivable cost (0 when some
    register's convention-busy segments leave room for it, its full spill
    cost otherwise).

    Two honesty mechanisms make the result an {e oracle} rather than a
    fifth heuristic:

    - the incumbent is warm-started from the best heuristic rung below
      it on [Allocator]'s ladder, so the reported optimum is never worse
      than any heuristic even where the paper's intra-lifetime splitting
      falls outside the whole-lifetime model — if the search cannot
      strictly beat the best rung, that rung's own output is adopted
      verbatim;
    - the search is budgeted ({!options.node_budget} nodes, plus a
      {!options.max_instrs} size gate) and raises {!Budget_exceeded}
      rather than hanging on oversized functions; [Allocator.run]
      degrades such functions to the next rung down, graph coloring,
      recording a {!Trace.Downgrade} and a {!Stats.t.downgrades} bump
      exactly like the service's deadline degradation, so downgraded
      results can never silently pose as exact. *)

open Lsra_ir
open Lsra_target

type options = {
  node_budget : int;
      (** maximum branch-and-bound nodes across both register classes *)
  max_instrs : int;
      (** functions with more instructions than this raise
          {!Budget_exceeded} before any search work *)
}

val default_options : options

(** Raised by {!run_exact} when the size gate or the node budget trips;
    the payload says which and at what count. *)
exception Budget_exceeded of string

(** [run_exact opts trace liveness ~rungs ~failed machine func]: exact
    allocation, or {!Budget_exceeded}. [Stats.opt_proven] is 1 when the
    search ran to completion (a proven optimum of the whole-lifetime
    model and a certified floor under every heuristic); [Stats.opt_nodes]
    counts nodes explored.

    [rungs] are the heuristics below it on [Allocator]'s ladder, in
    order; [go trace f] allocates [f]. Each runs untraced on a copy of
    [func], and is skipped if it raises an exception [failed] accepts;
    any other exception propagates. If the search cannot strictly beat
    the best rung (the earliest on ties), that rung's run on [func] is
    adopted. [liveness] is [func]'s exact liveness as it stands; it holds
    for each rung's copy too, so [Allocator]'s rungs reuse it. *)
val run_exact :
  options ->
  Trace.t option ->
  Lsra_analysis.Liveness.t ->
  rungs:(Trace.t option -> Func.t -> Stats.t) list ->
  failed:(exn -> bool) ->
  Machine.t ->
  Func.t ->
  Stats.t
