(** Independent allocation verifier.

    [check machine ~original ~allocated] abstractly executes the allocated
    function, tracking which temporary's current value each register and
    spill slot holds, to a fixed point over the CFG. Every instruction
    carried over from the original program (matched by uid) must read each
    of its temporaries from a register that provably holds that
    temporary's current value; redefinitions invalidate stale copies
    everywhere. This catches wrong resolution code, missed spill stores,
    clobbered caller-saved values and register swaps sequenced in the
    wrong order — independently of any particular execution.

    Cleanup-pass output is verifiable too: original instructions must
    appear in source order, and ones deleted outright (the peephole pass
    erases moves that allocation coalesced into self-moves) must be moves
    or nops, whose value flow is still applied to the abstract state. *)

open Lsra_ir
open Lsra_target

type error = {
  fn : string;  (** function being verified *)
  block : string;  (** label of the block holding the faulty site *)
  where : string;
      (** the instruction or terminator, printed; the block's label for
          errors at a terminator use or in a resolution block *)
  what : string;  (** what went wrong there *)
}

exception Mismatch of error

(** Raises {!Mismatch} on the first inconsistency. *)
val run : Machine.t -> original:Func.t -> allocated:Func.t -> unit

(** The input function, indexed for {!against}. Build it once, before
    allocation changes the function, and reuse it for every
    re-verification: [run m ~original ~allocated] is
    [against m (index original) ~allocated]. *)
type original

val index : Func.t -> original
val against : Machine.t -> original -> allocated:Func.t -> unit

val check :
  Machine.t -> original:Func.t -> allocated:Func.t -> (unit, error) result
