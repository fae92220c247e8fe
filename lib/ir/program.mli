(** A whole program: named functions, a designated entry function, and the
    size of the flat word-addressed heap the interpreter provides. *)

type t

val create : ?heap_words:int -> main:string -> (string * Func.t) list -> t
val funcs : t -> (string * Func.t) list
val main : t -> string
val heap_words : t -> int
val find : t -> string -> Func.t option
val find_exn : t -> string -> Func.t
val validate : t -> unit
val pp : Format.formatter -> t -> unit

(** Deep copy of every function. *)
val copy : t -> t
