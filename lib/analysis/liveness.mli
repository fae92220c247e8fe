(** Global liveness of temporaries, per basic block. Machine-register
    operands are excluded: by construction their live ranges never cross a
    block boundary (checked by {!Lsra.Precheck}), so the allocators track
    them locally. *)

open Lsra_ir

type t

(** [compute func] computes block-level liveness. With [~compress:true]
    (the default, and the paper's §3 optimisation) temporaries referenced
    in only one block are excluded from the iterative dataflow's bit
    vectors — they cannot be live across a boundary — and the result is
    re-expanded afterwards, so callers never see the difference. *)
val compute : ?compress:bool -> Func.t -> t

(** [refresh t func rows] re-solves the rows of the temps in [rows] (a
    temp-id bitset) from empty against [func]'s current bodies, as a least
    fixed point, and writes them over [t]'s rows; every other row is kept.
    [t] must have been computed for [func]'s CFG. The result equals a fresh
    {!compute} when only those rows can differ from it, which is how
    {!Dce} keeps one solution exact across its rounds. Returns [true] when
    some row changed. *)
val refresh : t -> Func.t -> Bitset.t -> bool

(** Width of the bit vectors (the function's temp-id bound). *)
val width : t -> int

(** Temps live at the top of the block at a linear index, as a temp-id
    bitset: the solution's own row, which {!refresh} changes in place. *)
val live_in : t -> int -> Bitset.t

(** Temps live at the bottom of the block at a linear index. *)
val live_out : t -> int -> Bitset.t

(** Temps live on entry to at least one block, i.e. live across some block
    boundary — the temps that participate in resolution bit vectors. *)
val live_across_blocks : t -> Bitset.t
