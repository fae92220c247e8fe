(** Domain-parallel fan-out of independent work items over a persistent
    domain pool.

    Register allocation is embarrassingly parallel across functions, and
    the paper's whole argument is compile-time: spreading the per-function
    work over a few domains buys wall-clock time without touching the
    algorithm. Domains are expensive to spawn, so helpers are created
    once and parked between batches; every [map_array] in the process —
    [fold_stats] batches, the allocation service's request batches
    ([Lsra_service.Mux]), bench — shares the same pool. *)

open Lsra_ir

(** A persistent helper-domain pool. One batch runs at a time; helpers
    park on a condition variable between batches. Most callers want the
    process-wide pool via {!map_array} / {!get_pool} rather than a
    private instance. *)
module Pool : sig
  type t

  (** [create ~helpers] spawns [helpers] parked helper domains. *)
  val create : helpers:int -> t

  (** Number of helper domains (the calling domain is not counted). *)
  val size : t -> int

  (** Spawn additional helpers so that [size t >= helpers]. Never
      shrinks. *)
  val grow : t -> int -> unit

  (** [run t ~participants body] executes [body ()] on the calling
      domain and on up to [participants] helpers concurrently, returning
      once all participants have finished. [body] must not raise (wrap
      it); batches are serialised internally, so [run] is safe to call
      from multiple domains. *)
  val run : t -> participants:int -> (unit -> unit) -> unit

  (** Join all helpers. The pool must not be used afterwards. *)
  val shutdown : t -> unit
end

(** Shut down the process-wide pool (idempotent; also registered with
    [at_exit] so parked helpers never keep a finished process alive).
    The next {!get_pool} / parallel {!map_array} builds a fresh pool. *)
val teardown : unit -> unit

(** [map_array ?jobs ?weight items f] computes [f] on every element of
    [items] and returns the results in item order.

    [jobs <= 1] (the default) runs sequentially on the calling domain —
    the pool is not touched. [jobs = 0] picks
    [Domain.recommended_domain_count ()]. With [jobs > 1], items are
    handed out through an atomic cursor to [jobs] domains (the caller's
    included); [f] must therefore only touch the item it is given.
    [weight] is a cost model: when given, the cursor deals items in
    decreasing [weight] order (ties by index), so the most expensive
    items start first and cannot land on a domain after the queue has
    drained. Results are placed at their item's index, so the returned
    array is identical to [Array.map f items] regardless of [jobs],
    [weight], or domain timing.

    If [f] raises (on any domain), the batch still completes — remaining
    items are abandoned, helpers return to the pool — and the first
    exception observed is re-raised with its backtrace. *)
val map_array :
  ?jobs:int -> ?weight:('a -> int) -> 'a array -> ('a -> 'b) -> 'b array

(** [fold_stats ?jobs prog pass] runs [pass i f] on every function [f]
    of [prog], [i] being its position in {!Program.funcs}, via
    {!map_array} — weighted by [Func.n_instrs] so big functions are dealt
    first — and returns the {!Stats.add}-merged totals, merged in function
    order. Allocation results and merged counters are identical
    to a sequential run. *)
val fold_stats :
  ?jobs:int -> Program.t -> (int -> Func.t -> Stats.t) -> Stats.t
