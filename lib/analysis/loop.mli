(** Natural-loop nesting depth per block. Both allocators weight spill
    priorities by [10^depth], as the paper prescribes. *)

open Lsra_ir

type t

(** Dominators and the natural loops of every back edge, read off one
    integer edge table: [edges], when given, must be {!Cfg.edge_tables}
    of [cfg]; it is built here otherwise. *)
val compute : ?edges:Cfg.edges -> Cfg.t -> t

(** Nesting depth of the block at a linear index (0 = not in any loop). *)
val depth : t -> int -> int

val depth_of_label : t -> Cfg.t -> string -> int

(** Linear indices of loop-header blocks, ascending. *)
val headers : t -> int list

val max_depth : t -> int
