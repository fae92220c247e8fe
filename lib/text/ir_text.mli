(** Textual concrete syntax for whole programs: printing and parsing.

    The format round-trips everything except instruction uids (which are
    global and regenerated on parse): functions, temp names and classes,
    block layout order, spill slots, call conventions, and spill
    provenance tags (carried in `; spill:phase-kind` comments). *)

open Lsra_ir

exception Parse_error of { line : int; msg : string }

val to_string : Program.t -> string

(** The largest temp id, spill slot number and register index the parser
    accepts: [2^20]. The generators and corpora in this repository stay
    far below it (their largest temp id is 7825, in a table3-large
    procedure), and the bound keeps an adversarial few bytes from sizing
    a per-function table in the allocator. *)
val max_index : int

(** Parse a program; validates before returning. Raises {!Parse_error} on
    syntax errors and {!Cfg.Malformed} on structural ones, and on nothing
    else, in time linear in the length of the text. The first error in
    reading order is the one reported.

    - A temp is declared once per function, as [name.id] or [t<id>] with
      a decimal id; a second declaration of the same id is an error. A
      use must spell the temp as its declaration does.
    - Temp ids, slot numbers ([slotN]) and register indices ([$rN],
      [$fN]) are decimal and at most {!max_index}.
    - Decimal integer literals must fit in an OCaml [int]. Float
      literals are what the printer's [%h] writes, [infinity],
      [-infinity], [nan] and [-nan] included. *)
val of_string : string -> Program.t
