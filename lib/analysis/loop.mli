(** Natural-loop nesting depth per block. Both allocators weight spill
    priorities by [10^depth], as the paper prescribes. *)

open Lsra_ir

type t

(** Dominators and the natural loops of every back edge, read off the
    CFG's integer edge tables ({!Cfg.edge_tables}). *)
val compute : Cfg.t -> t

(** Nesting depth of the block at a linear index (0 = not in any loop). *)
val depth : t -> int -> int

(** Linear indices of loop-header blocks, ascending. *)
val headers : t -> int list

val max_depth : t -> int
