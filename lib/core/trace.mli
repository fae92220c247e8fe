(** Structured decision traces for the allocators.

    Every consequential allocation decision — interval starts and
    expiries, register assignments with the rule that picked them, spill
    splits, second chances, early second chances, move preferencing,
    eviction deliberation with the §2.3 distance heuristic's candidates,
    and the resolution pass's edge repairs in parallel-move order — can be
    recorded as a typed event stream by passing a {!t} sink to
    {!Allocator.run} (or {!Allocator.run_program}), or to one heuristic
    directly: the scan of {!Binpack} and then {!Resolution}, {!Two_pass},
    {!Poletto} or {!Coloring}. With no sink the allocators emit nothing
    and pay only a pointer test per would-be event.

    The stream is renderable as indented text ({!to_text}) or as JSON
    lines ({!to_jsonl}), and is {e replayable}: {!replay_check} recomputes
    the evict/resolve spill counters and the slot count from the events
    alone and compares them against the {!Stats.t} the allocator reported,
    so any trace consumer doubles as a consistency oracle over the
    allocator's own accounting. *)

open Lsra_ir

(** Which rule of the decision tree granted a register. *)
type reason =
  | Free_hole  (** smallest sufficient free availability hole (§2.2) *)
  | Hole_evict  (** occupant sits in a lifetime hole: free eviction (§2.1) *)
  | Displace  (** evicted a lower-priority occupant (§2.3 heuristic) *)
  | Insufficient
      (** largest insufficient free hole (§2.5): the value will be evicted
          when the hole expires *)
  | Move_pref  (** move preferencing: the destination reuses the source's
                   register (§2.5) *)
  | Whole  (** whole-lifetime commitment (two-pass binpacking) *)
  | Point  (** point lifetime of a spilled temp (two-pass / Poletto) *)
  | Color  (** graph-coloring assignment *)
  | Exact  (** proven-optimal whole-lifetime commitment (branch and
               bound) *)

(** One register weighed during an eviction deliberation. *)
type candidate = {
  c_reg : Mreg.t;
  c_occupant : string option;  (** occupant temp, [None] if free *)
  c_benefit : float;
      (** §2.3 keep-benefit of the occupant ([nan] for free registers) *)
  c_hole_end : int;  (** end of the availability hole at the decision *)
}

type event =
  | Fn of { name : string; slots0 : int }
      (** allocation of function [name] begins; [slots0] spill slots
          pre-exist in its frame *)
  | Block of { label : string }
  | Start of { temp : string; id : int; pos : int }
      (** first allocation decision for this temporary: its interval
          enters the scan *)
  | Assign of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t;
      reason : reason;
      hole_end : int;  (** [max_int] when unknown / not hole-based *)
    }
  | Evict_choice of {
      pos : int;
      incoming : string;
      incoming_benefit : float;
      candidates : candidate list;
          (** every register weighed, with the distance heuristic's
              verdicts, in register order *)
    }
  | Spill_split of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t option;  (** [None] when spilling through a temp
                                (graph coloring) *)
      slot : int;
      next_ref : int option;
          (** next reference of the split lifetime, when the allocator
              knows it: a second chance must follow before that position's
              rewrite *)
    }
  | Store_elided of { temp : string; id : int; pos : int; reg : Mreg.t }
      (** an eviction needed no store: the consistency bit said the memory
          home is already current (§2.4) *)
  | Second_chance of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t option;
      slot : int;
    }  (** reload at a later reference: the spilled value's second chance *)
  | Early_second_chance of {
      temp : string;
      id : int;
      pos : int;
      src : Mreg.t;
      dst : Mreg.t;
    }  (** convention eviction satisfied by a move to a free register
          instead of a store (§2.5) *)
  | Pref_miss of { temp : string; id : int; pos : int; why : string }
      (** the move optimisation was applicable in shape but rejected *)
  | Expire of { temp : string; id : int; pos : int; reg : Mreg.t }
      (** the occupant's lifetime ended; its register is released *)
  | Slot_alloc of { temp : string; id : int; slot : int }
      (** a fresh spill slot was handed to this temporary *)
  | Edge of { src : string; dst : string }
      (** resolution repairs the edge [src]→[dst]; the following resolve
          events are its repair code in emission (parallel-move) order *)
  | Resolve_store of {
      temp : string;
      id : int;
      reg : Mreg.t;
      slot : int;
      cycle : bool;  (** [true] when breaking a register cycle through the
                         temp's slot *)
    }
  | Resolve_load of { temp : string; id : int; reg : Mreg.t; slot : int }
  | Resolve_move of {
      temp : string;
      id : int;
      dst : Mreg.t;
      src : Mreg.t;
      cycle : bool;  (** [true] for the scratch move that detaches a
                         register cycle *)
    }
  | Pass_begin of { pass : string }
      (** a managed pipeline pass (see {!Passes}) starts; pipeline-level,
          so legal outside any {!Fn} section *)
  | Pass_end of { pass : string; changed : int }
      (** the pass finished, having rewritten or removed [changed]
          instructions (for slot compaction: frame words saved) *)
  | Slot_renumber of { fn : string; from_slot : int; to_slot : int }
      (** slot compaction rehomed a spill slot of function [fn] *)
  | Downgrade of {
      req : string;  (** the service request (or function) downgraded *)
      from_algo : string;  (** requested allocator, by short name *)
      to_algo : string;  (** allocator actually run, by short name *)
      budget : float;  (** the request's compile budget, seconds *)
      predicted : float;
          (** the cost model's estimate for [from_algo], seconds *)
    }
      (** the allocation service traded quality for speed: the requested
          allocator's predicted compile time exceeded the request's
          deadline, so a cheaper linear-scan variant ran instead (the
          paper's §4 quality/speed dial). Pipeline-level, so legal
          outside any {!Fn} section. *)

(** A collecting sink. *)
type t

val create : unit -> t
val emit : t -> event -> unit

(** [emit_fn trace func] opens [func]'s section with its {!Fn} event when
    [trace] is given. *)
val emit_fn : t option -> Func.t -> unit

(** Events in emission order. *)
val events : t -> event list

val count : t -> int

(** [since t n]: the events emitted after the sink held [n] (a {!count}
    read earlier), in emission order. *)
val since : t -> int -> event list

(** Keep only the sections (an {!Fn} event and everything up to the next
    one) of the named function. *)
val filter_fn : string -> event list -> event list

val to_text : event list -> string
val to_jsonl : event list -> string

(** Counters recomputed from an event stream. *)
type replayed = {
  r_evict_loads : int;
  r_evict_stores : int;
  r_evict_moves : int;
  r_resolve_loads : int;
  r_resolve_stores : int;
  r_resolve_moves : int;
  r_slots : int;  (** pre-existing + freshly allocated slots, summed over
                      every {!Fn} section *)
}

val replay : event list -> replayed

(** Compare {!replay} of the stream against the allocator-reported
    counters (evict/resolve × load/store/move, and the slot count).
    [Error] describes every disagreeing counter. *)
val replay_check : event list -> Stats.t -> (unit, string) result

(** Structural sanity of a stream. Always checked: events appear inside an
    {!Fn} section (except the pipeline-level {!Pass_begin}, {!Pass_end}
    and {!Slot_renumber}, which are legal anywhere), and every slot
    referenced by a spill/reload/resolve event was first announced by a
    {!Slot_alloc} in the same section.
    With [strict] (the second-chance scan's contract): no assignment or
    reload of a temporary after its {!Expire}; no second {!Spill_split} of
    a temporary without an intervening assignment or reload; and every
    {!Spill_split} whose [next_ref] is known is followed by a second
    chance (a {!Second_chance} or {!Assign}) for that temporary — the
    split lifetime gets its next register home, or it had reached its end
    of lifetime. *)
val well_formed : ?strict:bool -> event list -> (unit, string) result
