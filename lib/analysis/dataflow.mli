(** Generic iterative bit-vector dataflow over a CFG, with gen/kill
    transfer functions: [result = gen ∪ (meet_input − kill)].

    This single engine drives liveness (backward, union) and the paper's
    resolution-phase consistency problem ([USED_C_in]/[USED_C_out]:
    backward, union). *)

open Lsra_ir

type direction = Forward | Backward
type meet = Union | Inter

type result = {
  in_of : Bitset.t array;  (** indexed by linear block index *)
  out_of : Bitset.t array;
}

(** [solve cfg ~direction ~meet ~width ~gen ~kill ()] runs a worklist
    solver to the fixed point: blocks are visited in (reverse) linear
    order and revisited only when an input changed, over the CFG's
    integer successor/predecessor tables ({!Cfg.edge_tables})
    and a reusable scratch vector. [gen i] and [kill i] are the transfer
    sets of the block at linear index [i].
    [rounds], when supplied, receives the number of sweeps that processed
    at least one pending block (the paper's "two or three iterations at
    most" observation is testable through it). *)
val solve :
  Cfg.t ->
  direction:direction ->
  meet:meet ->
  width:int ->
  gen:(int -> Bitset.t) ->
  kill:(int -> Bitset.t) ->
  ?rounds:int ref ->
  unit ->
  result

(** The original round-robin solver: every sweep revisits every block
    until one changes nothing. Same fixed point as {!solve}; kept as the
    reference implementation the worklist solver is property-tested
    against (and as a worst-case baseline for the compile-time tables). *)
val solve_reference :
  Cfg.t ->
  direction:direction ->
  meet:meet ->
  width:int ->
  gen:(int -> Bitset.t) ->
  kill:(int -> Bitset.t) ->
  ?rounds:int ref ->
  unit ->
  result
