(** The second-chance binpacking scan (paper §2.2–§2.3): one forward pass
    over the linear order that allocates registers and rewrites the
    instruction stream simultaneously, splitting lifetimes at spills and
    giving spilled temporaries new register homes at later references.

    The scan alone assumes linear control flow; {!Resolution} must
    follow to repair the allocation assumptions across real CFG edges. *)

open Lsra_ir
open Lsra_analysis
open Lsra_target

type consistency_mode =
  | Iterative
      (** trust consistency along the linear order; repair with the
          iterative bit-vector dataflow during resolution (paper §2.4) *)
  | Conservative
      (** strictly linear variant (paper §2.6): re-derive consistency at
          each block top from predecessors' saved vectors *)

type options = {
  early_second_chance : bool;  (** move instead of store+load at convention
                                   evictions (paper §2.5) *)
  move_opt : bool;  (** give a move's destination its source's register
                        when the hole fits (paper §2.5) *)
  consistency : consistency_mode;
}

val default_options : options

(** Scan result: the function with rewritten bodies plus everything the
    resolution phase needs. The outer arrays are indexed by linear block
    index, bitsets by temp id. *)
type t = {
  func : Func.t;
  regidx : Regidx.t;
  liveness : Liveness.t;
  lifetimes : Lifetime.t;
  top_loc : int array;
      (** for block [b], at [top_off.(b)] to [top_off.(b + 1) - 1], the
          scan's location of every temp live on entry, in the
          [Bitset.iter] order of [b]'s [live_in]: [-1] for memory,
          otherwise the register's {!Regidx} flat index *)
  top_off : int array;  (** [nb + 1] offsets into [top_loc] *)
  bottom_loc : int array;  (** the same for [live_out], at the bottom *)
  bottom_off : int array;
  are_consistent : Bitset.t array;
  used_consistency : Bitset.t array;
      (** the paper's USED_CONSISTENCY per block; {!Resolution} adds
          the stores it suppresses on the block's out-edges *)
  wrote_tr : Bitset.t array;
  slot_of : int array;  (** per temp id, for {!slot}: [-1] before the first *)
  change_off : int array;
      (** [nb + 1] offsets into {!change_log}: block [b]'s location
          changes are entries [change_off.(b)] to [change_off.(b + 1) - 1].
          [change_off.(b)] is also where the log stood when the scan
          recorded [b]'s top locations, and [change_off.(b + 1)] where it
          stood when it recorded [b]'s bottom ones: nothing changes a
          location between a block's bottom record and the next block's
          top record *)
  ws : Workspace.t;  (** the scanning domain's workspace, holding the log *)
  scan_no : int;  (** this scan's number in [ws], the log's owner check *)
  stats : Stats.t;
  opts : options;
  trace : Trace.t option;
      (** the sink the scan recorded into, for {!Resolution} to
          continue the same function's section *)
}

(** The change log: the temp id of every location change the scan made
    (a write of a temp's location that differs from the value before),
    in scan order, at indices [0] to [change_off.(nb) - 1] of the
    returned array (which may be longer). A temp's location can differ
    between two boundary records only if the temp is in the log between
    them, so {!Resolution} compares an edge's locations only over one
    slice of it. The log lives in the scanning domain's {!Workspace} and
    is reused by that domain's next scan: call this before another scan
    runs there; afterwards it raises [Invalid_argument]. *)
val change_log : t -> int array

exception Out_of_registers of string

(** A forward cursor over one register's busy segments (sorted and
    disjoint, as {!Lifetime.reg_busy} gives them): queries must come at
    nondecreasing positions; a lower one raises [Invalid_argument].
    [next_start_after c pos] is the first segment start after [pos]
    ([max_int] if none); [hole_end_if_free c pos] is [min_int] when a
    segment covers [pos], else that start minus one. *)
module Busy_cursor : sig
  type t
  val create : Interval.seg array -> t
  val next_start_after : t -> int -> int
  val hole_end_if_free : t -> int -> int
end

(** [analyse stats liveness machine func]: the register index and
    lifetimes that the scan and {!Spill_everywhere} start from, built on
    [liveness], [func]'s exact liveness as it stands; loops and lifetimes
    are timed under {!Stats.Lifetime}. *)
val analyse :
  Stats.t -> Liveness.t -> Machine.t -> Func.t -> Regidx.t * Lifetime.t

(** [slot trace func lifetimes slot_of id]: the stack slot of temporary
    [id], memoised in [slot_of] ([-1]: none yet); the first call takes a
    fresh slot from [func] and records a {!Trace.Slot_alloc}. The one slot
    memo of the scan, {!Resolution} and {!Spill_everywhere}. *)
val slot : Trace.t option -> Func.t -> Lifetime.t -> int array -> int -> int

(** Run the allocate-and-rewrite scan, mutating [func]'s block bodies and
    terminators. When [trace] is given, every allocation decision is
    recorded into it (see {!Trace}); with it absent the scan pays only a
    pointer test per decision. Raises {!Out_of_registers} only when a
    single instruction references more distinct locations than the machine
    has registers. The block loop is timed, with its minor words, under
    {!Stats.Scan}.

    [liveness], when given, must be [func]'s exact liveness as it stands,
    such as the solution {!Dce.run_to_fixpoint} returns; the scan then
    skips its own solve and charges nothing to {!Stats.Liveness}.
    [Allocator.run] always hands one over (DCE's, or its own solve);
    without one the scan solves under {!Stats.Liveness}. *)
val scan :
  ?opts:options ->
  ?trace:Trace.t ->
  ?liveness:Liveness.t ->
  Machine.t ->
  Func.t ->
  t
