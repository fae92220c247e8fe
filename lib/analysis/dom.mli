(** Immediate dominators via the Cooper–Harvey–Kennedy iterative
    algorithm, over linear block indices. *)

open Lsra_ir

type t

(** [edges], when given, must be {!Cfg.edge_tables} of [cfg]; it is
    built here otherwise. *)
val compute : ?edges:Cfg.edges -> Cfg.t -> t

(** Immediate dominator of a block (by linear index); [None] for the
    entry. Meaningless for unreachable blocks (see {!reachable}). *)
val idom : t -> int -> int option

val reachable : t -> int -> bool

(** [dominates t a b]: does block [a] dominate block [b]? Reflexive.
    [false] when either block is unreachable. *)
val dominates : t -> int -> int -> bool
