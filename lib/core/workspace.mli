(** Domain-local, reusable scratch arenas for the allocation hot paths.

    [Lifetime.compute] dominates the allocator's heap traffic when built
    on consed lists; this module gives each domain one set of growable
    int buffers that survive across functions, so steady-state allocation
    per function is a few exact-size output arrays rather than
    O(segments + references) list cells. Fetch with {!get} — the
    workspace is domain-local ([Domain.DLS]), so domain-parallel
    per-function allocation needs no locking. *)

open Lsra_ir

(** A growable int buffer: [a.(0 .. n-1)] are the live elements. *)
type buf = { mutable a : int array; mutable n : int }

val buf_push : buf -> int -> unit
val buf_clear : buf -> unit

(** Grow the buffer's backing array to at least [cap] elements (contents
    up to [n] preserved); re-read [a] afterwards. *)
val buf_reserve : buf -> int -> unit

type t = {
  mutable open_end : int array;
  mutable cnt : int array;
  mutable off : int array;
  mutable known : Bytes.t;
  mutable temp_of : Temp.t array;
  opened : buf;
  ev_id : buf;
  ev_s : buf;
  ev_e : buf;
  rf_id : buf;
  rf_pos : buf;
  rf_meta : buf;
  sg_s : buf;
  sg_e : buf;
  mutable body : Instr.t array;
      (** the binpack scan's output buffer for its current block *)
  changes : buf;
      (** the binpack scan's change log: the temp id of every location
          change, in scan order (see [Binpack.change_log]) *)
  mutable scans : int;
      (** binpack scans started on this domain; the latest owns
          [changes] *)
  edge_ops : buf;  (** [Resolution]'s pass-1 repairs of one function *)
}

val create : unit -> t

(** [reset ws ~n_temps ~n_ids] sizes the per-id scratch for [n_ids]
    lifetime ids ([n_temps] temporaries followed by the machine
    registers) and clears everything a fresh [Lifetime.compute] needs
    clean. *)
val reset : t -> n_temps:int -> n_ids:int -> unit

(** This domain's workspace (created on first use). *)
val get : unit -> t
