(** Basic blocks: a label, a straight-line body, and a terminator.

    Conditional branches name both targets explicitly, so fall-through is a
    property of the layout (the CFG's linear block order), not of the
    instruction — exactly the linear view the binpacking scan relies on. *)

type terminator =
  | Jump of string
  | Branch of {
      op : Instr.cmp;
      a : Operand.t;
      b : Operand.t;
      ifso : string;
      ifnot : string;
    }
  | Ret

type t

val make : label:string -> body:Instr.t array -> term:terminator -> t
val label : t -> string
val body : t -> Instr.t array
val term : t -> terminator

(** Uid of the terminator, for verifier correspondence; stable across
    operand rewriting. *)
val term_uid : t -> int

val set_body : t -> Instr.t array -> unit
val set_term : t -> terminator -> unit

(** Successor labels, deduplicated when both branch arms agree. *)
val succ_labels : t -> string list

(** [iter_term_uses ~temp ~reg b] visits the locations the terminator
    reads, in operand order, like {!Instr.iter_uses}. Allocates nothing. *)
val iter_term_uses : temp:(Temp.t -> unit) -> reg:(Mreg.t -> unit) -> t -> unit

(** Substitute the terminator's used locations in place. *)
val rewrite_term : use:(Loc.t -> Loc.t) -> t -> unit

(** Replace occurrences of successor label [from] with [to_]. *)
val retarget_term : t -> from:string -> to_:string -> unit

(** Append the printed form of a terminator to a buffer;
    {!term_to_string} is this into a fresh buffer. *)
val term_to_buffer : Buffer.t -> terminator -> unit

val term_to_string : terminator -> string
val pp : Format.formatter -> t -> unit

(** Fresh block sharing instruction values (instructions are immutable and
    keep their uids, which the verifier relies on). *)
val copy : t -> t
