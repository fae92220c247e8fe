(** Seeded random structured programs for differential testing of the
    allocators. Programs are well-defined by construction (everything
    initialised before use, bounded loops, no division) and fold their
    final state into the return register, so a single corrupted value
    changes the observable result. *)

open Lsra_ir
open Lsra_target

type params = {
  seed : int;
  n_funcs : int;
  n_temps : int;  (** integer temps per function *)
  n_stmts : int;  (** top-level statements per function *)
  max_depth : int;  (** nesting depth of ifs and loops *)
  call_prob : float;
  ext_call_prob : float;
      (** probability of an observable [ext_puti] call — raises
          caller-saved clobber pressure and adds mid-run output the
          differential oracle compares *)
  switch_prob : float;
      (** probability of a multi-way branch cascade (branchier CFGs with
          many edges into one join) *)
  carried : int;
      (** accumulators per loop-carried loop: values live around the back
          edge and consumed only after the exit, forcing loop-carried
          spills under pressure *)
  float_frac : float;
}

val default_params : params

(** Call-dense, deep-spill profile: high [call_prob]/[ext_call_prob] and
    many loop-carried accumulators per loop, so generated programs are
    dominated by call-boundary save/restore traffic and whole-lifetime
    spills to [Slots] frame indices — the stress shape for the native
    backend's frame addressing and call protocol. Runs can be long:
    seeds 1002 and 1003 exceed 200 M dynamic instructions. *)
val hostile_params : seed:int -> params
val program : ?params:params -> Machine.t -> Program.t
