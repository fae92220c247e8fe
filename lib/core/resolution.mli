(** The resolution phase (paper §2.4): reconcile the linear scan's
    allocation assumptions with the actual CFG by inserting loads, stores
    and moves on edges, with parallel-move sequentialisation (register
    swaps included), plus the iterative consistency dataflow that decides
    where suppressed spill stores must be reinstated. *)

(** Mutates the scanned function; resolution instructions carry the
    [Resolve] spill tag and are counted into the scan's {!Stats.t}.
    The consistency dataflow's sweep count goes to [dataflow_rounds]; it
    stays 0 in [Conservative] mode and when no store was suppressed, as
    the solve is then skipped.
    Edge repairs are recorded into the sink the scan used, so a traced
    scan's section continues seamlessly, in emission order — an
    {!Trace.Edge} event followed by its repair code in parallel-move
    order. *)
val run : Binpack.t -> unit

(** [iter_candidates scanned f] calls [f p s id] for every temp [id] that
    pass 1 compares on each edge [p → s] of the scanned function, in
    {!Cfg.edge_tables} order (by source block, then {!Block.succ_labels}
    order), then in id order: the temps live into [s] whose location the
    scan changed between its bottom record of [p] and its top record of
    [s] (a slice of {!Binpack.change_log}). No other temp can have
    different locations across the edge. Call it before {!run}, which
    splits edges. *)
val iter_candidates : Binpack.t -> (int -> int -> int -> unit) -> unit
