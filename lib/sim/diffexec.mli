(** Differential-execution oracle over the allocators.

    The strongest correctness check available: interpret a program before
    allocation and after, and compare every observable — the output
    written through the [ext_put*] routines and the value returned from
    [main]. The interpreter poisons caller-saved registers at calls and
    traps on reads of undefined values, so convention violations and
    lost spills surface as concrete divergences. On an x86-64 host every
    check ends at the machine: the allocated program is emitted with
    {!Lsra_native.Lower.compile} and executed, and must reproduce the
    last interpreter run.

    [check] / [check_all] apply the oracle to any {!Lsra.Allocator}
    algorithm; {!fuzz} drives seeded random programs (from
    {!Lsra_workloads.Gen}) through every allocator and shrinks failures
    to minimal textual reproducers. *)

open Lsra_ir
open Lsra_target

type divergence =
  | Reference_trap of string
      (** the pre-allocation program itself traps — an ill-defined input,
          not an allocator bug *)
  | Allocated_trap of string
  | Output_mismatch of { expected : string; actual : string }
  | Ret_mismatch of { expected : Value.t; actual : Value.t }
  | Verifier_reject of Lsra.Verify.error
      (** the abstract verifier rejected the allocation (only with
          [~verify:true], the default) *)
  | Allocator_raise of string
  | Trace_mismatch of string
      (** the decision trace disagrees with the allocator's own [Stats]
          counters, or the event stream is malformed — the allocator's
          accounting and its actions have drifted apart *)
  | Pass_divergence of { pass : string; underlying : divergence }
      (** a managed pipeline pass (named by {!Lsra.Passes.name}), not the
          allocation itself, introduced the underlying divergence — only
          from {!check_pipeline} / {!fuzz} *)
  | Native_divergence of string
      (** the allocated program failed to emit, or its native run
          disagrees with the last interpreter run the oracle accepted
          ({!native_mismatch}) — an encoder or lowering bug, not
          attributed to a pass *)

val divergence_to_string : divergence -> string

(** [true] for {!Verifier_reject}, including one wrapped in a
    {!Pass_divergence} — the split between {!Sweep.Reject} and
    {!Sweep.Diverge}. *)
val is_verifier_reject : divergence -> bool

(** An in-place per-function allocator, as the test suites use. *)
type alloc_fn = Machine.t -> Func.t -> unit

(** [check_with machine alloc prog] interprets [prog] (untouched — a copy
    is allocated), allocates every function of the copy with [alloc],
    optionally verifies each against its pre-allocation form
    ([verify] defaults to [true]), re-interprets, compares, and runs the
    result natively.
    [input] feeds [ext_getc] on both runs. It exists so that the oracle's
    own tests can substitute corrupting allocators; the allocators
    themselves are checked by {!check} and {!check_pipeline}. *)
val check_with :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  Machine.t ->
  alloc_fn ->
  Program.t ->
  (unit, divergence) result

(** {!check_pipeline} with no managed pass: the allocation alone, traced,
    so every differential check is also a trace consistency check. *)
val check :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  (unit, divergence) result

(** Run every algorithm (default {!Lsra.Allocator.all}); returns the
    divergences found, tagged with the allocator's short name. *)
val check_all :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  ?algorithms:Lsra.Allocator.algorithm list ->
  Machine.t ->
  Program.t ->
  (string * divergence) list

(** The oracle sandwich over the whole managed pipeline: interpret the
    program once for reference, then run a copy through
    {!Lsra.Allocator.pipeline} with [passes] (default
    {!Lsra.Passes.all}) — DCE's liveness hand-over included — under a
    decision trace, so every allocation checks its section against its
    stats ({!Lsra.Allocator.check_trace}), and with the abstract verifier
    after allocation and after every cleanup pass ([verify] defaults to
    [true]). The program is re-interpreted after {e every} stage. A
    divergence introduced by a managed pass is reported as
    {!Pass_divergence}, pinned to that pass by name; an exception from
    the allocation step is {!Allocator_raise}, and one from a managed
    pass propagates. The program the last stage leaves then runs natively
    (with [fuel], [input] and the original's heap size) and must match
    the last interpreter run, or the check fails with
    {!Native_divergence}; off x86-64 this stage is skipped. On success,
    returns the pipeline's stats, as
    {!Lsra.Allocator.pipeline} reports them. *)
val check_pipeline :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  ?passes:Lsra.Passes.t list ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  (Lsra.Stats.t, divergence) result

(** [native_mismatch expected native] compares a native run with the
    interpreter run it must reproduce: any native trap, the output bytes,
    and — when the interpreter returned an integer — the integer return
    register. [None] when they agree, else what differs. *)
val native_mismatch :
  Interp.outcome -> Lsra_native.Exec.outcome -> string option

(** Greedy delta-debugging of a failing program: repeatedly delete one
    instruction or straighten one conditional branch, keeping an edit
    only while the reference run stays well-defined {e and} the
    divergence persists, until no single edit helps (or [max_checks]
    candidates were evaluated, default 2000). Unless [fuel] is given,
    each candidate's interpreter budget is derived from the reference
    execution of the input, so edits that create runaway loops are
    rejected quickly. Returns the input unchanged if it does not fail in
    the first place. *)
val shrink :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  ?max_checks:int ->
  Machine.t ->
  alloc_fn ->
  Program.t ->
  Program.t

(** {!shrink}, but against the full-pipeline oracle {!check_pipeline}
    with the given [passes]: the divergence that must persist may live in
    a cleanup pass, not just in the allocation. *)
val shrink_pipeline :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  ?passes:Lsra.Passes.t list ->
  ?max_checks:int ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  Program.t

type fuzz_report = {
  seed : int;
  machine_name : string;  (** the machine's label in [machines] *)
  machine : Machine.t;
  algorithm : Lsra.Allocator.algorithm;
  divergence : divergence;
  reproducer : string;  (** textual IR of the shrunk failing program *)
}

val pp_fuzz_report : fuzz_report -> string

(** [fuzz ~machines ~seeds ()] generates one program per seed and
    labelled machine ({!Sweep.fuzz_machines} in [bench fuzz]), checks
    it under every algorithm {e through the full managed pipeline}
    ({!check_pipeline} with [passes], default {!Lsra.Passes.all} — so
    the fuzzer exercises Copyprop, DCE, Motion, Peephole and Slots, not
    just allocation), and shrinks each failure under the same pipeline
    oracle. Deterministic: the same seed set always exercises the same
    programs. [log] receives one progress line per divergence found. *)
val fuzz :
  ?fuel:int ->
  ?verify:bool ->
  machines:(string * Machine.t) list ->
  ?algorithms:Lsra.Allocator.algorithm list ->
  ?passes:Lsra.Passes.t list ->
  ?log:(string -> unit) ->
  seeds:int list ->
  unit ->
  fuzz_report list
