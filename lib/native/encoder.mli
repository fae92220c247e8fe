(** A small x86-64 instruction encoder.

    Pure byte emission into a growable buffer, with two-pass label
    fixup: forward references emit a rel32 placeholder and are patched
    when {!to_bytes} runs. Nothing here touches executable memory or
    the host architecture — the encoder produces the same bytes on any
    platform, which is what lets the golden encoding fixtures run on
    non-x86-64 CI hosts.

    Register operands are raw x86-64 register numbers (0–15). The
    memory forms deliberately cover only what the lowering needs:
    [base + disp32] with a base whose low three bits are not RSP's
    (no SIB escape), and [base + index*8] for heap cells. Invalid
    combinations raise [Invalid_argument] at emission time, never
    silently mis-encode. *)

type t

(** General-purpose registers, by hardware number. *)

val rax : int
val rcx : int
val rdx : int
val rbx : int
val rsp : int
val rbp : int
val rsi : int
val rdi : int
val r8 : int
val r9 : int
val r10 : int
val r11 : int
val r12 : int
val r13 : int
val r14 : int
val r15 : int

(** Condition codes for [setcc]/[jcc]. *)
type cc = E | NE | L | LE | G | GE | A | AE | B | BE | P | NP

type label

val create : unit -> t

(** Current emission offset in bytes. *)
val pos : t -> int

val new_label : t -> label

(** Bind a label to the current offset. A label may be bound once. *)
val bind : t -> label -> unit

val label_pos : t -> label -> int option

(** {1 Moves} *)

val mov_rr : t -> dst:int -> src:int -> unit
val mov_ri : t -> dst:int -> int64 -> unit

(** [mov_rm t ~dst ~base ~disp] is [mov dst, [base + disp]]. *)
val mov_rm : t -> dst:int -> base:int -> disp:int -> unit

(** [mov_mr t ~base ~disp ~src] is [mov [base + disp], src]. *)
val mov_mr : t -> base:int -> disp:int -> src:int -> unit

(** [mov [base + disp], imm32] (sign-extended to 64 bits). *)
val mov_mi : t -> base:int -> disp:int -> int -> unit

(** [mov dst, [base + index*8]]. *)
val mov_r_sib : t -> dst:int -> base:int -> index:int -> unit

(** [mov [base + index*8], src]. *)
val mov_sib_r : t -> base:int -> index:int -> src:int -> unit

(** {1 Integer arithmetic (all 64-bit)} *)

val add_rr : t -> dst:int -> src:int -> unit
val sub_rr : t -> dst:int -> src:int -> unit
val and_rr : t -> dst:int -> src:int -> unit
val or_rr : t -> dst:int -> src:int -> unit
val xor_rr : t -> dst:int -> src:int -> unit
val cmp_rr : t -> int -> int -> unit
val test_rr : t -> int -> int -> unit
val imul_rr : t -> dst:int -> src:int -> unit
val add_ri : t -> int -> int -> unit
val and_ri8 : t -> int -> int -> unit

(** [cmp reg, [base + disp]]. *)
val cmp_rm : t -> int -> base:int -> disp:int -> unit

(** [cmp qword [base + disp], imm8]. *)
val cmp_mi8 : t -> base:int -> disp:int -> int -> unit

val neg : t -> int -> unit
val not_ : t -> int -> unit
val cqo : t -> unit
val idiv : t -> int -> unit
val shl_cl : t -> int -> unit
val shr_cl : t -> int -> unit
val sar_cl : t -> int -> unit
val shl_i : t -> int -> int -> unit
val shr_i : t -> int -> int -> unit
val sar_i : t -> int -> int -> unit

(** [dec qword [base + disp]]. *)
val dec_m : t -> base:int -> disp:int -> unit

(** {1 Flags to values} *)

(** [setcc cc r] on a low byte register; only RAX/RCX/RDX allowed. *)
val setcc : t -> cc -> int -> unit

(** [movzx r64, r8] from a low byte register (RAX/RCX/RDX). *)
val movzx_r8 : t -> dst:int -> src:int -> unit

val and8_rr : t -> dst:int -> src:int -> unit
val or8_rr : t -> dst:int -> src:int -> unit

(** [xor al, imm8]. *)
val xor_al_i : t -> int -> unit

(** {1 Control flow} *)

val jmp : t -> label -> unit
val jcc : t -> cc -> label -> unit
val call_label : t -> label -> unit
val call_reg : t -> int -> unit
val ret : t -> unit
val push : t -> int -> unit
val pop : t -> int -> unit
val sub_rsp : t -> int -> unit
val add_rsp : t -> int -> unit

(** {1 SSE scalar double} *)

val movsd_x_m : t -> dst:int -> base:int -> disp:int -> unit
val movsd_m_x : t -> base:int -> disp:int -> src:int -> unit
val movq_x_r : t -> dst:int -> src:int -> unit
val addsd : t -> dst:int -> src:int -> unit
val subsd : t -> dst:int -> src:int -> unit
val mulsd : t -> dst:int -> src:int -> unit
val divsd : t -> dst:int -> src:int -> unit
val ucomisd : t -> int -> int -> unit
val cvtsi2sd : t -> dst:int -> src:int -> unit
val cvttsd2si : t -> dst:int -> src:int -> unit

(** Resolve every fixup and return the finished machine code. Raises
    [Invalid_argument] if a referenced label was never bound. *)
val to_bytes : t -> bytes

val hex_of : bytes -> pos:int -> len:int -> string
