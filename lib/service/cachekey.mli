(** Stable content addresses for compile requests.

    A cached allocation is only reusable when {e everything} that shaped
    it is identical: the program being allocated, the machine's register
    shape, the allocator (with its options) and the pass list. The digest
    binds all four, so the cache needs no invalidation logic — a config
    change simply addresses different entries.

    What is digested: the MD5 of the machine fingerprint, the algorithm
    fingerprint, the normalized pass spec, the program's canonical text
    and (native mode only) the backend fingerprint, joined by NUL bytes.

    Stability: the program component is digested from its {e canonical}
    textual rendering ({!Lsra_text.Ir_text.to_string} of the parsed
    program), not from the request's raw bytes, so a program survives
    textual round-trips, comment changes and whitespace reformatting with
    its address intact. Instruction uids are regenerated on every parse
    and never printed, so they cannot leak into the digest.

    Where the text is rendered: {!digest} renders it itself. The service
    renders it once per request, derives every key of that request from
    the string with {!digest_canonical} and re-parses the same string for
    spot checks. Both calls digest the same bytes for the same program,
    so journals written through either stay valid. *)

open Lsra_ir
open Lsra_target

(** A printable fingerprint of everything about a machine the allocators
    can observe: per-class register counts, caller-saved counts and
    argument-register counts, plus the machine's name. *)
val machine_fingerprint : Machine.t -> string

(** Short-name rendering of an algorithm {e including} its options
    (second-chance binpacking with early-second-chance disabled is a
    different allocator than the default, and must address differently). *)
val algo_fingerprint : Lsra.Allocator.algorithm -> string

(** [digest ~machine ~algo ~passes prog] is the content address (an MD5
    hex string) of allocating [prog] under exactly this configuration.
    [backend], when given, joins the digested material — native-mode
    servers pass the machine-code fingerprint
    ({!Lsra_native.Lower.fingerprint}) so entries produced under one
    encoding scheme can never answer for another, and a fingerprint bump
    invalidates the whole native keyspace without touching pure-IR
    entries (the default digest is unchanged). *)
val digest :
  ?backend:string ->
  machine:Machine.t ->
  algo:Lsra.Allocator.algorithm ->
  passes:Lsra.Passes.t list ->
  Program.t ->
  string

(** {!digest} of a program given as its canonical text: [canonical] must
    be {!Lsra_text.Ir_text.to_string} of the program, which this does not
    check. *)
val digest_canonical :
  ?backend:string ->
  machine:Machine.t ->
  algo:Lsra.Allocator.algorithm ->
  passes:Lsra.Passes.t list ->
  string ->
  string

(** {!digest} of source text: parses, canonicalizes and digests. Raises
    {!Lsra_text.Ir_text.Parse_error} / [Cfg.Malformed] as the parser
    does. *)
val digest_source :
  ?backend:string ->
  machine:Machine.t ->
  algo:Lsra.Allocator.algorithm ->
  passes:Lsra.Passes.t list ->
  string ->
  string
