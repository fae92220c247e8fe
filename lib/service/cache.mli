(** Content-addressed result cache with LRU eviction.

    Maps a {!Cachekey} digest to the allocated program (canonical textual
    IR) plus the allocation's statistics. Capacity is bounded both by
    entry count and by payload bytes; inserting past either budget evicts
    least-recently-used entries until the new entry fits. Every operation
    is guarded by a mutex, so one cache may be shared by the domains that
    serve a {!Mux} batch. *)

type entry = {
  output : string;  (** allocated program, canonical textual IR *)
  stats : Lsra.Stats.t;  (** snapshot; {!find} returns a fresh copy *)
  algo : string;
      (** short name of the allocator that actually ran (after any
          deadline downgrade) — the spot-checker must re-run this one *)
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current *)
  bytes : int;  (** current payload bytes (outputs + keys) *)
}

type t

(** [create ~max_bytes ~max_entries ()] — defaults: 64 MiB, 4096
    entries. A budget of 0 disables caching (every lookup misses). *)
val create : ?max_bytes:int -> ?max_entries:int -> unit -> t

(** Lookup; a hit bumps the entry to most-recently-used and returns an
    entry whose [stats] is a private copy. Counts a hit or a miss. *)
val find : t -> string -> entry option

(** Insert (or refresh) an entry, evicting LRU entries as needed. An
    entry larger than the whole byte budget is not cached at all. *)
val add : t -> string -> entry -> unit

val counters : t -> counters

(** Keys from most- to least-recently used (test hook). *)
val lru_order : t -> string list
