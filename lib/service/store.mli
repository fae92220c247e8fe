(** Persistent content-addressed store behind the in-memory LRU.

    {!Cachekey} digests are stable across restarts (they address the
    {e canonical} program text plus machine/allocator/pass
    fingerprints), so completed allocations can outlive the process: a
    write-behind journal appends every cold fill, and a fresh server
    warm-loads its LRU from the journal at startup — reaching warm-hit
    rates from disk alone after a restart.

    Layout: [dir/shard-NN/journal], one append-only journal per shard,
    plus [dir/meta] recording the shard count (reopening with a
    different count is refused). Keys are sharded by a process- and
    restart-stable string hash ({!shard_of_key}) — the {e same} hash
    shards the in-memory cache — so separate server processes, each
    owning a subset of shard directories, compose behind a router.

    Journal records are length-prefixed
    ([E <key> <algo> <len>\n<payload>\n]); appends only ever extend the
    file, so a crash can only leave a truncated tail. Loading accepts
    the longest valid record prefix, drops the torn tail (counted in
    {!counters}), and heals the file. When a shard's journal outgrows
    its byte budget it is compacted: one record per live key, oldest
    keys dropped until the rewrite fits in half the budget. That
    low-water mark leaves half a budget of appends before the next
    compaction, so [n] appends of [size] bytes into one shard compact at
    most [ceil (n * size / (max_bytes / 2))] times. *)

type counters = {
  entries : int;  (** live keys across all shards *)
  bytes : int;  (** journal bytes on disk across all shards *)
  appended : int;  (** records appended since open *)
  loaded : int;  (** records accepted at open *)
  torn : int;  (** shards whose tail was cut at open *)
  compactions : int;
}

type t

(** Journal durability policy. [Never] (the default) flushes appends to
    the OS but never fsyncs them — a process crash loses nothing, a
    power loss may lose the most recent appends. [Batch] makes {!sync}
    (called by {!Mux} at batch boundaries) fsync every shard's
    journal, bounding power-loss exposure to the current batch at the
    cost of one fsync per shard per batch. Compaction and meta rewrites
    are always crash-safe regardless of the mode (tmp-file fsync +
    rename + directory fsync). *)
type sync_mode = Never | Batch

(** Stable shard index of [key] (independent of the OCaml runtime's
    polymorphic hash — safe to rely on across processes and restarts). *)
val shard_of_key : shards:int -> string -> int

(** [open_ ~dir ~shards ~max_bytes ()] creates or reopens the store,
    loading every shard's valid journal prefix. [max_bytes] (default
    16 MiB, floor 4 KiB) bounds each shard's journal; exceeding it
    triggers compaction. [sync] (default [Never]) sets the append
    durability policy. Raises [Invalid_argument] if [dir] was created
    with a different shard count. *)
val open_ :
  dir:string -> ?shards:int -> ?max_bytes:int -> ?sync:sync_mode -> unit -> t

(** Every journal record in append order (oldest first, duplicate keys
    preserved): replaying them through [Cache.add] reconstructs both
    contents and LRU recency. Each record carries the latest payload
    for its key. *)
val load : t -> (string * string * string) list

(** [append t ~key ~algo ~output] journals one completed allocation
    (write-behind: call it after the in-memory insert). Thread-safe;
    compaction runs inline when the shard's budget is exceeded. *)
val append : t -> key:string -> algo:string -> output:string -> unit

(** Batch-boundary durability point: under [Batch], flush and fsync
    every shard's open journal; under [Never], a no-op. Thread-safe. *)
val sync : t -> unit

val counters : t -> counters

(** Close the append channels (the store may not be used afterwards).
    Journal contents survive a process crash — appends are flushed —
    and are power-loss-durable up to the last {!sync} under [Batch]. *)
val close : t -> unit
