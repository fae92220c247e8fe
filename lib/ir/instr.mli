(** Non-branching instructions of the load/store IR.

    Every instruction carries a unique id ([uid]) that is preserved when an
    allocator rewrites its operands; the allocation verifier uses it to
    match rewritten instructions back to the original program. Instructions
    inserted by an allocator carry a {!tag} recording which spill category
    they belong to (the paper's Figure 3 categorisation).

    Calls follow a convention modelled on the Digital Alpha: arguments and
    results travel through fixed machine registers (explicit moves are
    emitted around the call), and the call clobbers all caller-saved
    registers. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type unop = Neg | Not | Fneg | Itof | Ftoi

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Feq | Fne | Flt | Fle

type spill_phase = Evict  (** inserted during the linear scan / spill phase *)
                 | Resolve  (** inserted during CFG-edge resolution *)

type spill_kind = Spill_ld | Spill_st | Spill_mv

type tag = Original | Spill of { phase : spill_phase; kind : spill_kind }

type desc =
  | Move of { dst : Loc.t; src : Operand.t }
  | Bin of { op : binop; dst : Loc.t; a : Operand.t; b : Operand.t }
  | Un of { op : unop; dst : Loc.t; src : Operand.t }
  | Cmp of { op : cmp; dst : Loc.t; a : Operand.t; b : Operand.t }
      (** [dst] is an integer 0/1, whatever the comparison class. *)
  | Load of { dst : Loc.t; base : Operand.t; off : int }
  | Store of { src : Operand.t; base : Operand.t; off : int }
  | Spill_load of { dst : Loc.t; slot : int }
      (** Reload from a stack spill slot of the current frame. *)
  | Spill_store of { src : Loc.t; slot : int }
  | Call of {
      func : string;
      args : Mreg.t list;  (** argument registers read by the call *)
      rets : Mreg.t list;  (** result registers defined by the call *)
      clobbers : Mreg.t list;
          (** all registers whose value the call may destroy; includes
              [rets] *)
    }
  | Nop

type t

(** Build an instruction with a fresh uid. *)
val make : ?tag:tag -> desc -> t

(** Draw a fresh uid from the global supply (used for terminators, which
    live outside {!t}). *)
val fresh_uid : unit -> int

(** Same uid and tag, new payload. *)
val with_desc : t -> desc -> t

(** Same uid and payload, new tag. *)
val with_tag : t -> tag -> t

val uid : t -> int
val desc : t -> desc
val tag : t -> tag
val is_spill : t -> bool

(** [iter_uses ~temp ~reg i] visits the locations [i] reads, in operand
    order: [temp] for a temporary, [reg] for a machine register (for
    calls: the argument registers). The walk itself allocates nothing;
    {!Loc.collect} turns it into a list. *)
val iter_uses : temp:(Temp.t -> unit) -> reg:(Mreg.t -> unit) -> t -> unit

(** The locations [i] writes (for calls: the clobber set, in order).
    Allocates nothing. *)
val iter_defs : temp:(Temp.t -> unit) -> reg:(Mreg.t -> unit) -> t -> unit

(** [rewrite ~use ~def i] substitutes every used location through [use] and
    every defined location through [def], preserving uid and tag. Call
    instructions are returned unchanged (their register lists are fixed by
    convention). *)
val rewrite : use:(Loc.t -> Loc.t) -> def:(Loc.t -> Loc.t) -> t -> t

(** [is_move i] is [Some (dst, src)] when [i] is a register-to-register /
    temp-to-temp copy (immediate moves excluded). *)
val is_move : t -> (Loc.t * Loc.t) option

val binop_cls : binop -> Rclass.t
val cmp_operand_cls : cmp -> Rclass.t
val binop_to_string : binop -> string
val unop_to_string : unop -> string
val cmp_to_string : cmp -> string

(** Append the printed form to a buffer: the instruction, then its spill
    tag as a [; spill:<phase>-<kind>] comment. With [~clobbers:true] a
    call also lists its clobber set ([! $r0 $f1 ...]), as the textual IR
    does; {!to_string} is this without clobbers into a fresh buffer. *)
val to_buffer : ?clobbers:bool -> Buffer.t -> t -> unit

val to_string : t -> string
val pp : Format.formatter -> t -> unit
