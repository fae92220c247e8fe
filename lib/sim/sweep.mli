(** What the corpus × machine × allocator oracle sweeps share: the
    corpus, the spill-heavy machines, the oracle allocator list, typed
    verdicts with one exit-code rule, and one artifact writer. The
    sweeps are [lsra_tool diffcheck], [bench optgap], [bench jit] and
    [bench fuzz]; each keeps only its oracle call, the lines it prints
    and its JSON. *)

open Lsra_ir
open Lsra_target

(** A corpus entry, named by source (["spec:wc"], ["mini:collatz"],
    ["pressure:cvrin"], ["hostile:1000"]); [input] feeds [ext_getc]. *)
type case = { name : string; program : Program.t; input : string }

(** The Specbench and then the Minilang programs that fit the machine's
    calling convention (the others are dropped, not raised), then,
    unless [pressure] is [false], the pressure modules cvrin, twldrv and
    fpppp. *)
val corpus : ?pressure:bool -> scale:int -> Machine.t -> case list

(** The call-dense, deep-spill generated programs
    ({!Lsra_workloads.Gen.hostile_params}) of seeds 1000 and 1001. The
    next seeds, 1002 and 1003, run past 200 M instructions, the oracle's
    default fuel, on alpha and small:7:7: their reference run traps, so
    they would compare nothing. *)
val hostile : Machine.t -> case list

(** [small:7:7]: 7 int and 7 float registers, 4 of each caller-saved. *)
val small_7_7 : Machine.t

(** [small-8]: 8 int and 8 float registers, 4 of each caller-saved:
    enough argument registers for the corpus conventions, few enough
    registers for real spill pressure (the alpha rarely spills). *)
val small_8 : Machine.t

(** [alpha] and [small-8], labelled as the bench sweeps print them. *)
val bench_machines : (string * Machine.t) list

(** {!bench_machines} plus [tiny-4], 4 registers per class. *)
val fuzz_machines : (string * Machine.t) list

(** {!Lsra.Allocator.all} with the exact allocator under a node budget of
    2000, so both its proven and its downgrade paths are covered. *)
val oracle_algorithms : Lsra.Allocator.algorithm list

type verdict =
  | Pass
  | Skip  (** nothing to compare *)
  | Reject of string  (** only the abstract verifier objected *)
  | Diverge of string  (** wrong behaviour *)

(** [Reject] for a verifier rejection, even inside a pass divergence;
    [Diverge] otherwise. *)
val of_divergence : Diffexec.divergence -> verdict

type tally = private {
  mutable passed : int;
  mutable skipped : int;
  mutable rejected : int;
  mutable diverged : int;
}

val tally : unit -> tally
val record : tally -> verdict -> unit
val checks : tally -> int

(** 4 if anything diverged, else 3 if anything was rejected, else 0. *)
val exit_code : tally -> int

(** Exit with the worst {!exit_code} of the tallies unless it is 0. *)
val exit_on : tally list -> unit

(** [run t cases algorithms check] records [check case algo] for every
    case and, within it, every algorithm, in order. *)
val run :
  tally ->
  case list ->
  Lsra.Allocator.algorithm list ->
  (case -> Lsra.Allocator.algorithm -> verdict) ->
  unit

(** [write_artifact ~dir ~name machine algo reproducer] writes the
    reproducer to [dir/STEM.lsra] and [algo]'s decision trace over it on
    [machine] to [STEM.trace.txt] and [STEM.trace.jsonl], creating [dir].
    STEM joins the [name] parts with ['_'], mapping characters outside
    [[A-Za-z0-9._-]] to ['-']. If parsing or allocating raises,
    [STEM.trace.txt] holds a "no trace" note instead. Returns the
    [.lsra] path. *)
val write_artifact :
  dir:string ->
  name:string list ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  string ->
  string
