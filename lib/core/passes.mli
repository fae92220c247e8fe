(** The managed pipeline passes around allocation.

    The paper's evaluation pipeline (§3) is DCE → allocation →
    move-collapsing peephole; this module names every non-allocation pass
    of that pipeline and its extensions — block-local copy propagation
    and dead-code elimination before allocation, spill motion, the
    peephole and frame compaction after — as one composable,
    individually-toggleable list, so drivers ({!Allocator.pipeline},
    [lsra_tool --passes], the benchmarks) and oracles (the differential
    checker in [Lsra_sim.Diffexec]) all speak about the same pass set.

    Every pass is pure cleanup: running any subset, in canonical order,
    must preserve observable behaviour. {!Allocator.pipeline} re-runs the
    {!Verify} structural oracle after every post-allocation pass, and
    [Diffexec.check_pipeline] additionally re-executes the program after
    {e every} pass — the oracle sandwich that keeps cleanup output as
    trustworthy as allocation output. *)

open Lsra_ir

type t = Copyprop | Dce | Motion | Peephole | Slots

(** Every pass, in canonical pipeline order: [Copyprop]; [Dce] (both
    pre-allocation); [Motion]; [Peephole]; [Slots] (post-allocation). *)
val all : t list

(** The paper's §3 pipeline: [Dce] before allocation, the
    move-collapsing [Peephole] after. *)
val default : t list

(** The post-allocation cleanups: [Motion]; [Peephole]; [Slots]. *)
val cleanup : t list

(** [Copyprop] and [Dce] run before allocation; the rest after. *)
val is_pre : t -> bool

(** The {!Stats.pass} a pass's time and minor words are booked under. *)
val stats_pass : t -> Stats.pass

(** [Stats.pass_name (stats_pass p)]; {!of_name} is its inverse. *)
val name : t -> string

val of_name : string -> t option

(** Dedup and restore canonical order. Passes are not commutative
    (Peephole after Motion deletes the self-moves Motion exposes), so a
    pass list is a {e set}, not a schedule. *)
val normalize : t list -> t list

(** Parse a [--passes] specification: ["all"], ["none"], ["default"],
    ["cleanup"] (= default + post-allocation cleanups) or a
    comma-separated list of pass names; the result is normalized. *)
val parse : string -> (t list, string) result

(** Inverse of {!parse} for a normalized list. *)
val to_spec : t list -> string

(** Run one pass over the whole program; returns its change count
    (instructions rewritten or removed; frame words saved for [Slots]).
    Wall time and minor words land in [stats]' pass table under
    [stats_pass p], [Slots]' savings also land in [stats.frame_saved],
    and a [trace] sink brackets the work in {!Trace.Pass_begin} /
    {!Trace.Pass_end} events. *)
val run_pass : ?stats:Stats.t -> ?trace:Trace.t -> t -> Program.t -> int

(** {!run_pass} [Dce], also returning each function's liveness as DCE
    leaves it, in {!Program.funcs} order (every slot is [Some]): the
    solutions {!Allocator.pipeline} hands to the allocator. *)
val run_dce :
  ?stats:Stats.t ->
  ?trace:Trace.t ->
  Program.t ->
  int * Lsra_analysis.Liveness.t option array
