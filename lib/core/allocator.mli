(** One entry point over the allocators, plus the paper's full
    compilation pipeline (DCE → allocation → peephole). *)

open Lsra_ir
open Lsra_target

type algorithm =
  | Second_chance of Binpack.options
  | Two_pass
  | Poletto
  | Graph_coloring
  | Optimal of Optimal.options
      (** exact branch-and-bound spill minimisation, warm-started from
          the rungs {!below} it; degrades to the next one down,
          {!Graph_coloring}, when its budget trips (see {!Optimal}) *)

val default_second_chance : algorithm
val default_optimal : algorithm

(** The four heuristic allocators (default options) in the paper's
    order: binpack, twopass, poletto, gc. *)
val heuristics : algorithm list

(** {!heuristics} with the exact allocator as the top rung. The
    corpus-wide oracles — {!run_program} callers, the verifier sweeps in
    the test suite, and the differential-execution checker — iterate
    this list, so adding an allocator here puts it under every oracle. *)
val all : algorithm list

val name : algorithm -> string
val short_name : algorithm -> string

(** Parse a {!short_name} (default options); also accepts
    second-chance, coloring and exact. *)
val of_name : string -> algorithm option

(** The rungs below an algorithm (placed by {!short_name}) on the one
    quality ladder of the paper's §4, best first: optimal, gc, binpack,
    twopass, poletto, with default options. The exact allocator's warm
    start and fallback, the service's degradation and optgap read it. *)
val below : algorithm -> algorithm list

(** Raised by {!check_trace}, hence by a traced {!run}; the message names
    the check, the allocator and the function. *)
exception Trace_mismatch of string

(** [check_trace algorithm fname section stats]: the check a traced {!run}
    makes of its own section of the sink, {!Trace.replay_check} against
    [stats] and {!Trace.well_formed} ([~strict] for [Second_chance]). *)
val check_trace : algorithm -> string -> Trace.event list -> Stats.t -> unit

(** Allocate one function. [trace] records every allocation decision into
    the given sink (see {!Trace}). A traced run checks itself: the
    section it added to the sink must pass {!check_trace} against the
    returned stats, or {!Trace_mismatch} is raised after the section is
    in the sink. Events already in the sink are not checked.
    [Second_chance] runs the scan of {!Binpack} and then {!Resolution}.

    This is the only code that measures an allocation: [alloc_time] (on
    the monotonic clock) and the GC counters of the returned stats cover
    the whole call, counted once even when the exact allocator runs other
    allocators inside it.

    [liveness], when given, must be [func]'s exact liveness as it stands,
    such as {!Lsra_analysis.Dce.run_to_fixpoint} returns. Without it,
    [run] solves {!Lsra_analysis.Liveness} once, inside the measured
    window, and charges the solve to [Stats.Liveness] in the returned
    stats. Either way that one solution is what the allocator starts
    from (the exact allocator's rungs, model and fallback included), and
    the output is the same. *)
val run :
  ?trace:Trace.t ->
  ?liveness:Lsra_analysis.Liveness.t ->
  algorithm ->
  Machine.t ->
  Func.t ->
  Stats.t

(** Allocate every function of the program and return the merged stats.
    [jobs] fans the per-function allocations across that many domains via
    {!Parallel.fold_stats}; the default ([jobs <= 1]) is sequential, and
    the allocated program is bit-identical either way. A [trace] sink
    forces sequential execution (the sink is shared mutable state).

    [liveness], when given, has one slot per function of
    {!Program.funcs}, in that order; a [Some] slot is passed to {!run}
    for its own function ([None]: the allocator solves as usual). A slot
    is emptied when its function's allocation takes it, so no solution
    outlives that allocation. *)
val run_program :
  ?jobs:int ->
  ?trace:Trace.t ->
  ?liveness:Lsra_analysis.Liveness.t option array ->
  algorithm ->
  Machine.t ->
  Program.t ->
  Stats.t

(** [pipeline algorithm machine prog] mutates [prog] through the managed
    pass pipeline: the pre-allocation passes of [passes] (in
    {!Passes.normalize} order), allocation, then its post-allocation
    cleanup passes. The default pass set is {!Passes.default} — DCE
    before allocation, the move-collapsing peephole after, exactly the
    paper's §3 pipeline; [~passes:[]] allocates and runs nothing else.

    Oracle sandwich: with [~verify:true] every function is checked by
    {!Verify} against its pre-allocation form after allocation {e and
    again after every cleanup pass}, so Motion/Peephole/Slots output is
    held to the same standard as the allocator's. [check_each] is an
    additional caller-supplied oracle (e.g. the differential-execution
    check in [Lsra_sim.Diffexec]), invoked after every pass with [Some
    pass] and once after allocation with [None]; raise from it to abort.

    With [~precheck:true] the input is validated by {!Precheck} first.
    [jobs] parallelises the allocation step as in {!run_program};
    [trace] records the allocation step's decisions (forcing it
    sequential) plus {!Trace.Pass_begin}/{!Trace.Pass_end} brackets for
    every managed pass. Slots' frame-word savings are reported in the
    returned stats' [frame_saved], and every managed pass's wall time
    and minor words in its {!Stats.pass} slot of [pass_time] and
    [pass_minor_words].

    When [Dce] runs (it is always the last pre-allocation pass), liveness
    is solved once per function: DCE keeps its solution exact through its
    rounds ({!Passes.run_dce}) and this call hands each one to the
    allocator through {!run_program}, for the length of the call only.
    The solve is therefore charged to [Dce] and [Liveness]'s slot of
    [pass_time] stays 0;
    the allocated program and every counter are identical to a separate
    DCE pass followed by {!run_program}. *)
val pipeline :
  ?precheck:bool ->
  ?verify:bool ->
  ?passes:Passes.t list ->
  ?check_each:(Passes.t option -> Program.t -> unit) ->
  ?jobs:int ->
  ?trace:Trace.t ->
  algorithm ->
  Machine.t ->
  Program.t ->
  Stats.t
