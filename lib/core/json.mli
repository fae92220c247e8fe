(** The one JSON writer: {!Trace.to_jsonl} renders through it, and so do
    the bench harness's [BENCH_*.json] artifacts. *)

type t =
  [ `Null
  | `Bool of bool
  | `Int of int
  | `Float of float  (** [%.17g], so it reads back exactly; NaN is [null] *)
  | `String of string
  | `List of t list
  | `Assoc of (string * t) list  (** an object, fields in list order *) ]

(** Compact single-line rendering. Strings and keys escape the double
    quote, the backslash, newline and tab by their two-character forms
    and every other byte below 0x20 as a [\u00XX] escape; other bytes
    pass through unchanged. *)
val to_string : t -> string
