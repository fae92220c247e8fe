(** Control-flow graphs.

    The array returned by {!blocks} is the {e linear order}: the layout the
    binpacking scan walks and against which lifetimes and holes are
    measured. Appending blocks (e.g. when splitting a critical edge during
    resolution) extends the linear order at the end. *)

type t

exception Malformed of string

(** [create ~entry blocks] builds a CFG whose linear order is the given
    list order. Raises {!Malformed} on duplicate labels or a missing
    entry. *)
val create : entry:string -> Block.t list -> t

val entry : t -> string

(** Linear index of the entry block. *)
val entry_index : t -> int
val entry_block : t -> Block.t
val blocks : t -> Block.t array
val n_blocks : t -> int
val mem : t -> string -> bool
val block : t -> string -> Block.t

(** Position of a label in the linear order. *)
val block_index : t -> string -> int

val append_block : t -> Block.t -> unit

(** Predecessor labels of every block, in first-encountered order. *)
val preds_table : t -> (string, string list) Hashtbl.t

(** The CFG's edges as integer tables over linear block indices:
    [succs.(i)] lists block [i]'s successors in {!Block.succ_labels}
    order, [preds.(j)] block [j]'s predecessors in {!preds_table} order.
    The tables are kept once per CFG and always match it: every read
    checks, by physical equality, that the blocks and their terminators
    are the ones they were built from, and rebuilds them otherwise (after
    {!append_block}, {!reorder}, {!Block.retarget_term} or a
    {!Block.set_term} to other targets). A terminator rewritten with the
    same targets keeps them. Callers must not mutate the arrays. *)
type edges = { succs : int array array; preds : int array array }

val edge_tables : t -> edges

val iter_blocks : (Block.t -> unit) -> t -> unit

(** Check that every branch target exists. Raises {!Malformed}. *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit

(** Deep copy: fresh blocks, shared instruction values. *)
val copy : t -> t

(** Permute the linear (layout) order. The list must name every block
    exactly once, entry first. Raises {!Malformed} otherwise. Semantics
    are unchanged (branch targets are explicit); only layout-sensitive
    passes (the linear scan) observe the difference. *)
val reorder : t -> string list -> unit
