(** Lowering of post-allocation IR to x86-64 machine code.

    Consumes programs whose every operand is already a physical
    {!Lsra_ir.Mreg.t} or a spill-slot frame index — i.e. the output of
    any allocator — and emits position-independent code with a single
    entry stub at offset 0.

    {2 Register and frame model}

    The abstract machines have more registers than x86-64, so the
    mapping is hybrid: integer registers 0–3 (return + first argument
    registers, the hottest) live directly in RBX/R12/R13/R15 — all
    callee-saved in the SysV ABI, so calls into the C runtime helper
    preserve them for free — while higher integer registers and every
    float register are banked in a context structure addressed off R14.
    RBP frames each function; spill slot [s] lives at [rbp - 8*(s+1)],
    and a save area above the slots holds the abstract callee-saved
    registers around IR-to-IR calls (the interpreter's runtime provides
    that save/restore, so the emitted code must too). Arithmetic runs
    through RAX/RCX/RDX/R10/R11 and XMM0/XMM1 scratch; every
    integer result is renormalised to the interpreter's 63-bit OCaml
    semantics ([shl 1; sar 1]).

    Emitted runtime guards (division by zero, heap bounds, per-block
    fuel, post-call trap flags) write a trap code into the context and
    unwind through the function epilogues, so a trapping program
    reports instead of faulting the host process. *)

open Lsra_target

(** What the code at a listing offset was emitted for. Notes keep their
    subject and are rendered only by {!dump_asm}, so compiling formats no
    text. *)
type note =
  | Insn of Lsra_ir.Instr.t  (** an IR instruction *)
  | Label of string  (** the start of a block *)
  | Goto of string  (** an unconditional jump terminator *)
  | Cond of { ifso : string; ifnot : string }  (** a conditional branch *)
  | Prologue of { slots : int; save_area : int; frame_bytes : int }
  | Text of string  (** fixed code: return, epilogue, trap and entry stubs *)

type compiled = {
  code : bytes;
  fn_offsets : (string * int) list;
  listing : (string * int * note) list;
      (** (function, code offset, note), in emission order *)
  n_iregs : int;
  n_fregs : int;
}

(** Identifies the target encoding and ABI contract; a component of
    native-mode cache keys, bumped whenever emitted bytes change
    meaning. *)
val fingerprint : string

(** Compile a fully allocated program. [Error] reports unallocated
    temporaries or other unlowerable input; emission itself never
    fails on allocator output. Pure byte generation — works on any
    host architecture. *)
val compile : Machine.t -> Lsra_ir.Program.t -> (compiled, string) result

(** Render a hexdump listing, optionally restricted to one function
    (the entry stub is function ["<entry>"]). *)
val dump_asm : ?fn:string -> compiled -> string
