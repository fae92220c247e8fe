(** The "spill everywhere" model shared by the whole-lifetime allocators:
    {!Two_pass} (paper §3.1), {!Poletto} (§4) and the exact {!Optimal}.
    Each commits every lifetime whole, to one register or to a stack slot;
    this module owns what they then have in common: the analyses they
    start from and one slot per memory-resident temporary, both as
    second-chance binpacking has them, and the rewrite that sends each
    reference of such a temporary through a scratch register. The
    allocators keep only their placement policy and their choice of
    scratch register. *)

open Lsra_ir
open Lsra_target

type t = private {
  func : Func.t;
  regidx : Regidx.t;
  lifetimes : Lifetime.t;
  assignment : Mreg.t option array;
      (** per temp id: the register held for the whole lifetime, [None]
          for a temporary in memory. The allocator fills it in. *)
  slot_of : int array;  (** read through {!slot} *)
  stats : Stats.t;
  trace : Trace.t option;
}

(** [create trace liveness machine func] builds the analyses of [func]
    on [liveness] with {!Binpack.analyse}, timed into the new [stats],
    with nothing assigned; [trace] is the sink the allocator records
    into. *)
val create :
  Trace.t option ->
  Lsra_analysis.Liveness.t ->
  Machine.t ->
  Func.t ->
  t

(** Record an event in the trace, if there is one. *)
val emit : t -> Trace.event -> unit

(** The stack slot of a temporary, by id: {!Binpack.slot} over [slot_of]. *)
val slot : t -> int -> int

(** Rewrite every instruction and terminator of the function: a temporary
    with a register in [assignment] becomes that register, and each
    reference to any other temporary becomes [scratch temp pos nth], with
    a load from its slot before the instruction for a read, or a store to
    it after the instruction for a write. [pos] is the reference's linear
    position and [nth] counts the references already sent through scratch
    registers in the same instruction or terminator, from 0.

    Counts the loads and stores in [evict_loads]/[evict_stores], records
    a {!Trace.Second_chance} per load and a {!Trace.Spill_split} with no
    [next_ref] per store, and sets [slots]. *)
val rewrite : t -> scratch:(Temp.t -> int -> int -> Mreg.t) -> unit
