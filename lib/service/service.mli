(** The allocation service: one compile request in, one allocated
    program out, with a content-addressed cache in between and a
    deadline-driven quality/speed dial in front of the allocator.

    The paper's argument for linear scan is compile-time under dynamic
    compilation (§1, §4): a JIT allocates on demand, under a latency
    budget. This module is that setting made concrete. Each request
    carries a program, an allocator, a pass list and optionally a compile
    budget; the service answers from the cache when the content address
    matches a previous allocation, and otherwise runs
    {!Lsra.Allocator.pipeline} — downgrading a too-expensive allocator to
    a cheaper linear-scan variant first when the budget is at risk
    (second-chance binpacking → two-pass binpacking → Poletto), exactly
    the quality-for-speed trade the paper's Table 3 quantifies.

    Scale-out: the in-memory cache is sharded [shards]-way by a
    restart-stable key hash — the {e same} hash that shards the
    persistent {!Store} — and, when [store_dir] is set, every completed
    allocation is journaled write-behind so a fresh process warm-loads
    the cache (contents {e and} LRU recency) from disk at startup.

    Correctness: cold fills run under the abstract verifier
    ([verify_cold], on by default), and a configurable fraction of cache
    hits is {e spot-checked} — the source is re-allocated from scratch
    and the result must be byte-identical to the cached payload
    ({!Spot_check_failed} otherwise, the service's analogue of a
    differential-execution divergence). Spot checks apply equally to
    warm-loaded entries, so journal corruption that parses cleanly still
    cannot serve wrong bytes unnoticed. *)

open Lsra_target

type config = {
  machine : Machine.t;
  cache_bytes : int;  (** result-cache payload budget (see {!Cache}) *)
  cache_entries : int;  (** result-cache entry budget *)
  verify_cold : bool;  (** run {!Lsra.Verify} on every cold fill *)
  spot_check : int;
      (** re-allocate every [n]-th cache hit and require byte-identical
          output; [0] disables *)
  trace : Lsra.Trace.t option;
      (** sink for {!Lsra.Trace.Downgrade} events (emission is
          mutex-guarded; allocation itself is not traced) *)
  shards : int;
      (** N-way sharding of the in-memory cache and the persistent
          store by key hash (default 1); cache budgets split evenly *)
  store_dir : string option;
      (** persistent journal directory; [None] (default) = in-memory
          only. Each shard's journal is compacted past {!Store.open_}'s
          default budget *)
  store_sync : Store.sync_mode;
      (** journal append durability: [Store.Never] (default) flushes
          but never fsyncs; [Store.Batch] fsyncs at {!Mux}'s
          batch boundaries (see {!sync_store}) *)
  native : bool;
      (** native-backend mode (default [false]): every cold fill must
          also emit x86-64 machine code with {!Lsra_native.Lower}
          (an unemittable allocation raises {!Native_emit_failed}
          instead of filling the cache), and cache keys carry the
          encoder fingerprint — native entries never collide with
          pure-IR entries, and a fingerprint bump invalidates them
          wholesale. Emission is host-independent, so the mode works on
          any machine; only {e executing} the code needs x86-64. *)
}

val default_config : Machine.t -> config

type request = {
  req_id : string;
  source : string;  (** textual IR *)
  algo : Lsra.Allocator.algorithm;
  passes : Lsra.Passes.t list;
  deadline : float option;  (** compile budget, seconds *)
}

val request :
  ?algo:Lsra.Allocator.algorithm ->
  ?passes:Lsra.Passes.t list ->
  ?deadline:float ->
  id:string ->
  string ->
  request

type response = {
  resp_id : string;
  output : string;  (** allocated program, canonical textual IR *)
  key : string;  (** content address served *)
  cached : bool;
  downgraded_to : string option;
      (** short name of the allocator that ran instead of the requested
          one, when the deadline forced a downgrade *)
  stats : Lsra.Stats.t;
  elapsed : float;
      (** service-side wall seconds for this request, monotonic clock *)
}

(** A spot-checked cache hit did not reproduce byte-identically: either
    the cache returned a stale/corrupt payload or the allocator is not
    deterministic. Fatal — the bit-identical guarantee is broken. *)
exception Spot_check_failed of { req_id : string; key : string }

(** Native mode only: the allocated program could not be encoded. The
    request fails (ERR 4 on the wire) and nothing is cached. *)
exception Native_emit_failed of { req_id : string; msg : string }

type t

(** Create the service; when [config.store_dir] is set the persistent
    store is opened (created if missing) and the cache warm-loaded from
    its journal. Raises [Invalid_argument] if the store directory was
    created with a different shard count. *)
val create : config -> t

val config : t -> config

(** The persistent store, when the service was configured with one. *)
val store : t -> Store.t option

(** Force the store's journals to disk ({!Store.sync}); {!Mux} calls
    this at every batch boundary. A no-op without a store or under
    [Store.Never]. *)
val sync_store : t -> unit

(** Serve one request. Thread-/domain-safe: cache shards, cost model,
    store and trace emission are mutex-guarded, so {!Mux} may call this
    from many domains. Raises what parsing, {!Lsra.Verify} or
    {!Lsra.Precheck} raise on bad or mis-allocated input, and
    {!Spot_check_failed} on a spot-check divergence. *)
val handle : t -> request -> response

type service_counters = {
  cache : Cache.counters;  (** summed across shards *)
  requests : int;
  downgrades : int;
  spot_checks : int;
  shards : int;
  warm_loaded : int;
      (** journal records replayed into the cache at startup *)
}

val counters : t -> service_counters

(** [predict t algo n_instrs] is the cost model's current estimate (in
    seconds) for allocating [n_instrs] instructions with [algo]: observed
    seconds-per-instruction (EWMA over cold compiles), or a prior of
    [2e-7] seconds per instruction before any observation. *)
val predict : t -> Lsra.Allocator.algorithm -> int -> float
