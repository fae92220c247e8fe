(** Immediate dominators via the Cooper–Harvey–Kennedy iterative
    algorithm, over linear block indices and the CFG's integer edge
    tables ({!Cfg.edge_tables}). *)

open Lsra_ir

type t

val compute : Cfg.t -> t

(** Immediate dominator of a block (by linear index); [None] for the
    entry. Meaningless for unreachable blocks (see {!reachable}). *)
val idom : t -> int -> int option

val reachable : t -> int -> bool

(** [dominates t a b]: does block [a] dominate block [b]? Reflexive.
    [false] when either block is unreachable. *)
val dominates : t -> int -> int -> bool
