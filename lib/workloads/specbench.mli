(** Synthetic stand-ins for the paper's benchmark suite (SPEC92 programs
    plus compress, m88ksim, sort and wc), matched to each program's
    register-pressure, loop and call profile rather than its source code.
    These drive the Table 1 / Table 2 / Figure 3 reproductions. *)

open Lsra_ir
open Lsra_target

type case = {
  name : string;
  description : string;
  program : Program.t;
  input : string;  (** fed to [ext_getc] *)
}

(** A program calls with more argument registers than the machine
    passes arguments in (the message names the machine, the class and
    the count). *)
exception Unfit of string

(** The eleven benchmarks' names, in the paper's Table 1 order. *)
val names : string list

(** The eleven benchmarks, in {!names} order. [scale] multiplies loop
    trip counts (1 for tests, larger for benches). Raises {!Unfit} if
    any of them does not fit the machine, and [Invalid_argument] if
    [scale < 1]. *)
val all : Machine.t -> scale:int -> case list

(** Builds the named benchmark only ([None] for an unknown name).
    Raises {!Unfit} if it does not fit the machine, and
    [Invalid_argument] if [scale < 1]. *)
val find : Machine.t -> scale:int -> string -> case option
