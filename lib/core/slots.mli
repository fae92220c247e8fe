(** Frame compaction (extension): renumber spill slots so slots with
    disjoint live ranges share a frame word. Returns the number of frame
    words saved. Run after allocation (and after {!Motion}, which can
    only reduce slot liveness). A [trace] sink receives one
    {!Trace.Slot_renumber} event per rehomed slot. *)

open Lsra_ir

val run : ?trace:Trace.t -> Func.t -> int
