(** Static allocation statistics, in the categories of the paper's
    Figure 3 (evict vs. resolve, load/store/move) plus allocator-internal
    counters and a per-pass wall-time breakdown. Dynamic (executed) counts
    come from the simulator, which classifies instructions by their
    {!Lsra_ir.Instr.tag}. *)

type t = {
  mutable evict_loads : int;
  mutable evict_stores : int;
  mutable evict_moves : int;
  mutable resolve_loads : int;
  mutable resolve_stores : int;
  mutable resolve_moves : int;
  mutable slots : int;
  mutable frame_saved : int;
      (** frame words reclaimed by the {!Slots} compaction pass *)
  mutable dataflow_rounds : int;
  mutable resolve_pairs : int;
      (** (edge, temp) location comparisons in resolution's pass 1: the
          temps live across an edge whose location the scan changed
          between its two boundary records *)
  mutable coloring_iterations : int;
  mutable interference_edges : int;
  mutable coalesced_moves : int;
  mutable downgrades : int;
      (** deadline-driven algorithm downgrades taken by the allocation
          service (see [Lsra_service.Service]), and budget-driven
          downgrades taken by the exact allocator (see [Optimal]) *)
  mutable opt_nodes : int;
      (** branch-and-bound nodes explored by the exact allocator *)
  mutable opt_proven : int;
      (** functions whose exact search ran to completion: the result is a
          proven optimum of the whole-lifetime model *)
  mutable alloc_time : float;
      (** seconds spent inside the allocator, on the monotonic clock *)
  mutable minor_words : float;
      (** GC pressure attributed to the allocator, recorded as
          [Gc.quick_stat] deltas on whichever domain ran the function
          (per-domain counters, so parallel runs attribute correctly) *)
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  pass_time : float array;
      (** wall seconds spent inside each {!timed} pass, indexed by
          {!pass_index}. In [Allocator.pipeline] with [Dce] the
          function's one liveness solve is DCE's, so it is charged to
          [Dce] and [Liveness] reads 0 *)
  pass_minor_words : float array;
      (** minor words allocated inside each {!timed} pass, indexed the
          same way *)
}

(** The passes the wall-time breakdown distinguishes: the two analyses
    feeding the allocator (liveness only when [Allocator.run] solves it:
    a solution handed over by DCE was paid for under [Dce]), the
    allocate-and-rewrite scan, the CFG-edge resolution, and the managed
    pipeline passes around allocation (copy propagation, DCE, spill
    motion, the peephole and slot compaction). *)
type pass =
  | Liveness
  | Lifetime
  | Scan
  | Resolution
  | Copyprop
  | Dce
  | Motion
  | Peephole
  | Slots

val create : unit -> t
val total_spill : t -> int

(** Number of {!pass} constructors; [pass_time] and [pass_minor_words]
    have this length. *)
val n_passes : int

(** Dense index of a pass, for [pass_time] and [pass_minor_words]. *)
val pass_index : pass -> int

(** A pass's name, as [pp], the bench JSON, [--passes] and the trace's
    pass events spell it. *)
val pass_name : pass -> string

(** Seconds elapsed since [t0], a [Monotonic_clock.now ()] reading (in
    nanoseconds). The clock never steps backwards, so neither does a
    duration. *)
val seconds_since : int64 -> float

(** [timed s pass f] runs [f ()] and adds its elapsed time and
    minor-heap allocation to [pass]'s slots of [pass_time] and
    [pass_minor_words] in [s] (also on exception). *)
val timed : t -> pass -> (unit -> 'a) -> 'a

(** [record_gc_since s g0] adds the GC-counter deltas between [g0] and
    [Gc.quick_stat ()] to [s]. Take [g0] on the same domain. *)
val record_gc_since : t -> Gc.stat -> unit

(** Accumulate [s] into [into] (max for round/iteration counters, sums
    elsewhere, including every pass's time and minor words). *)
val add : into:t -> t -> unit

val pp : Format.formatter -> t -> unit
