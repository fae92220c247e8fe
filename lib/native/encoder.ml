(* x86-64 byte encoder. Every emitter here is total over the operand
   combinations the lowering uses and raises [Invalid_argument] on the
   ones it does not: a mis-encoded instruction must fail at emission
   time, never run as the wrong bytes. *)

type t = {
  buf : Buffer.t;
  mutable labels : int array; (* offset, or -1 while unbound *)
  mutable n_labels : int;
  mutable fixups : (int * int) list; (* rel32 patch offset, label id *)
}

let rax = 0
let rcx = 1
let rdx = 2
let rbx = 3
let rsp = 4
let rbp = 5
let rsi = 6
let rdi = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

type cc = E | NE | L | LE | G | GE | A | AE | B | BE | P | NP

let cc_code = function
  | B -> 0x2
  | AE -> 0x3
  | E -> 0x4
  | NE -> 0x5
  | BE -> 0x6
  | A -> 0x7
  | P -> 0xA
  | NP -> 0xB
  | L -> 0xC
  | GE -> 0xD
  | LE -> 0xE
  | G -> 0xF

type label = int

let create () =
  { buf = Buffer.create 1024; labels = Array.make 64 (-1); n_labels = 0;
    fixups = [] }

let pos t = Buffer.length t.buf

let new_label t =
  if t.n_labels = Array.length t.labels then begin
    let bigger = Array.make (2 * t.n_labels) (-1) in
    Array.blit t.labels 0 bigger 0 t.n_labels;
    t.labels <- bigger
  end;
  let l = t.n_labels in
  t.n_labels <- l + 1;
  l

let bind t l =
  if t.labels.(l) >= 0 then invalid_arg "Encoder.bind: label bound twice";
  t.labels.(l) <- pos t

let label_pos t l = if t.labels.(l) < 0 then None else Some t.labels.(l)

let byte t b = Buffer.add_char t.buf (Char.chr (b land 0xff))

let imm32 t v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then
    invalid_arg "Encoder: immediate does not fit in 32 bits";
  byte t v;
  byte t (v asr 8);
  byte t (v asr 16);
  byte t (v asr 24)

let imm64 t (v : int64) =
  for i = 0 to 7 do
    byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let check_reg r = if r < 0 || r > 15 then invalid_arg "Encoder: bad register"

(* REX for a reg/rm pair; [w] requests 64-bit operands, [x] extends a
   SIB index. Emitted even when 0x40 exactly iff [force] (byte-register
   encodings never need it here: setcc targets are restricted). *)
let rex ?(w = true) ?(x = 0) t ~reg ~rm =
  check_reg reg;
  check_reg rm;
  let b =
    (if w then 0x48 else 0x40)
    lor (if reg >= 8 then 0x4 else 0)
    lor (if x >= 8 then 0x2 else 0)
    lor if rm >= 8 then 0x1 else 0
  in
  if b <> 0x40 then byte t b

let modrm t ~md ~reg ~rm =
  byte t ((md lsl 6) lor ((reg land 7) lsl 3) lor (rm land 7))

(* [base + disp32], mod=10. A base whose low bits are RSP's would need a
   SIB byte; the lowering never uses such a base, so reject it. *)
let mem t ~reg ~base ~disp =
  if base land 7 = 4 then invalid_arg "Encoder: base needs a SIB escape";
  modrm t ~md:2 ~reg ~rm:base;
  imm32 t disp

(* [base + index*8], mod=00 + SIB. *)
let mem_sib t ~reg ~base ~index =
  if base land 7 = 5 then invalid_arg "Encoder: SIB base cannot be RBP/R13";
  if index land 7 = 4 then invalid_arg "Encoder: SIB index cannot be RSP";
  modrm t ~md:0 ~reg ~rm:4;
  byte t ((3 lsl 6) lor ((index land 7) lsl 3) lor (base land 7))

(* ------------------------------------------------------------------ *)
(* Moves *)

let mov_rr t ~dst ~src =
  rex t ~reg:src ~rm:dst;
  byte t 0x89;
  modrm t ~md:3 ~reg:src ~rm:dst

let mov_ri t ~dst v =
  if v >= -0x8000_0000L && v <= 0x7fff_ffffL then begin
    rex t ~reg:0 ~rm:dst;
    byte t 0xC7;
    modrm t ~md:3 ~reg:0 ~rm:dst;
    imm32 t (Int64.to_int v)
  end
  else begin
    rex t ~reg:0 ~rm:dst;
    byte t (0xB8 lor (dst land 7));
    imm64 t v
  end

let mov_rm t ~dst ~base ~disp =
  rex t ~reg:dst ~rm:base;
  byte t 0x8B;
  mem t ~reg:dst ~base ~disp

let mov_mr t ~base ~disp ~src =
  rex t ~reg:src ~rm:base;
  byte t 0x89;
  mem t ~reg:src ~base ~disp

let mov_mi t ~base ~disp v =
  rex t ~reg:0 ~rm:base;
  byte t 0xC7;
  mem t ~reg:0 ~base ~disp;
  imm32 t v

let mov_r_sib t ~dst ~base ~index =
  rex t ~x:index ~reg:dst ~rm:base;
  byte t 0x8B;
  mem_sib t ~reg:dst ~base ~index

let mov_sib_r t ~base ~index ~src =
  rex t ~x:index ~reg:src ~rm:base;
  byte t 0x89;
  mem_sib t ~reg:src ~base ~index

(* ------------------------------------------------------------------ *)
(* Integer arithmetic *)

let alu_rr op t ~dst ~src =
  rex t ~reg:src ~rm:dst;
  byte t op;
  modrm t ~md:3 ~reg:src ~rm:dst

let add_rr = alu_rr 0x01
let sub_rr = alu_rr 0x29
let and_rr = alu_rr 0x21
let or_rr = alu_rr 0x09
let xor_rr = alu_rr 0x31
let cmp_rr t a b = alu_rr 0x39 t ~dst:a ~src:b
let test_rr t a b = alu_rr 0x85 t ~dst:a ~src:b

let imul_rr t ~dst ~src =
  rex t ~reg:dst ~rm:src;
  byte t 0x0F;
  byte t 0xAF;
  modrm t ~md:3 ~reg:dst ~rm:src

let add_ri t r v =
  rex t ~reg:0 ~rm:r;
  byte t 0x81;
  modrm t ~md:3 ~reg:0 ~rm:r;
  imm32 t v

let and_ri8 t r v =
  rex t ~reg:4 ~rm:r;
  byte t 0x83;
  modrm t ~md:3 ~reg:4 ~rm:r;
  byte t v

let cmp_rm t r ~base ~disp =
  rex t ~reg:r ~rm:base;
  byte t 0x3B;
  mem t ~reg:r ~base ~disp

let cmp_mi8 t ~base ~disp v =
  rex t ~reg:7 ~rm:base;
  byte t 0x83;
  mem t ~reg:7 ~base ~disp;
  byte t v

let grp3 ext t r =
  rex t ~reg:ext ~rm:r;
  byte t 0xF7;
  modrm t ~md:3 ~reg:ext ~rm:r

let not_ t r = grp3 2 t r
let neg t r = grp3 3 t r
let idiv t r = grp3 7 t r

let cqo t =
  byte t 0x48;
  byte t 0x99

let shift_cl ext t r =
  rex t ~reg:ext ~rm:r;
  byte t 0xD3;
  modrm t ~md:3 ~reg:ext ~rm:r

let shl_cl = shift_cl 4
let shr_cl = shift_cl 5
let sar_cl = shift_cl 7

let shift_i ext t r n =
  if n < 0 || n > 63 then invalid_arg "Encoder: shift amount";
  rex t ~reg:ext ~rm:r;
  byte t 0xC1;
  modrm t ~md:3 ~reg:ext ~rm:r;
  byte t n

let shl_i = shift_i 4
let shr_i = shift_i 5
let sar_i = shift_i 7

let dec_m t ~base ~disp =
  rex t ~reg:1 ~rm:base;
  byte t 0xFF;
  mem t ~reg:1 ~base ~disp

(* ------------------------------------------------------------------ *)
(* Flags to values *)

let low_byte r =
  (* Only AL/CL/DL: SPL/BPL/SIL/DIL would need a REX prefix and R8B+
     a REX.B — the lowering computes its booleans in scratch only. *)
  if r > 2 then invalid_arg "Encoder: byte ops restricted to rax/rcx/rdx"

let setcc t cc r =
  low_byte r;
  byte t 0x0F;
  byte t (0x90 lor cc_code cc);
  modrm t ~md:3 ~reg:0 ~rm:r

let movzx_r8 t ~dst ~src =
  low_byte src;
  rex t ~reg:dst ~rm:src;
  byte t 0x0F;
  byte t 0xB6;
  modrm t ~md:3 ~reg:dst ~rm:src

let and8_rr t ~dst ~src =
  low_byte dst;
  low_byte src;
  byte t 0x20;
  modrm t ~md:3 ~reg:src ~rm:dst

let or8_rr t ~dst ~src =
  low_byte dst;
  low_byte src;
  byte t 0x08;
  modrm t ~md:3 ~reg:src ~rm:dst

let xor_al_i t v =
  byte t 0x34;
  byte t v

(* ------------------------------------------------------------------ *)
(* Control flow *)

let rel32_to t l =
  t.fixups <- (pos t, l) :: t.fixups;
  imm32 t 0

let jmp t l =
  byte t 0xE9;
  rel32_to t l

let jcc t cc l =
  byte t 0x0F;
  byte t (0x80 lor cc_code cc);
  rel32_to t l

let call_label t l =
  byte t 0xE8;
  rel32_to t l

let call_reg t r =
  if r >= 8 then byte t 0x41;
  byte t 0xFF;
  modrm t ~md:3 ~reg:2 ~rm:r

let ret t = byte t 0xC3

let push t r =
  if r >= 8 then byte t 0x41;
  byte t (0x50 lor (r land 7))

let pop t r =
  if r >= 8 then byte t 0x41;
  byte t (0x58 lor (r land 7))

let sub_rsp t n =
  rex t ~reg:5 ~rm:rsp;
  byte t 0x81;
  modrm t ~md:3 ~reg:5 ~rm:rsp;
  imm32 t n

let add_rsp t n =
  rex t ~reg:0 ~rm:rsp;
  byte t 0x81;
  modrm t ~md:3 ~reg:0 ~rm:rsp;
  imm32 t n

(* ------------------------------------------------------------------ *)
(* SSE scalar double *)

(* Mandatory prefix, then REX (only if needed, W clear), then 0F op. *)
let sse_mem pfx op t ~x ~base ~disp =
  byte t pfx;
  rex ~w:false t ~reg:x ~rm:base;
  byte t 0x0F;
  byte t op;
  mem t ~reg:x ~base ~disp

let movsd_x_m t ~dst ~base ~disp = sse_mem 0xF2 0x10 t ~x:dst ~base ~disp
let movsd_m_x t ~base ~disp ~src = sse_mem 0xF2 0x11 t ~x:src ~base ~disp

let sse_rr pfx op t ~reg ~rm =
  byte t pfx;
  rex ~w:false t ~reg ~rm;
  byte t 0x0F;
  byte t op;
  modrm t ~md:3 ~reg ~rm

let addsd t ~dst ~src = sse_rr 0xF2 0x58 t ~reg:dst ~rm:src
let subsd t ~dst ~src = sse_rr 0xF2 0x5C t ~reg:dst ~rm:src
let mulsd t ~dst ~src = sse_rr 0xF2 0x59 t ~reg:dst ~rm:src
let divsd t ~dst ~src = sse_rr 0xF2 0x5E t ~reg:dst ~rm:src
let ucomisd t a b = sse_rr 0x66 0x2E t ~reg:a ~rm:b

let sse_rr_w pfx op t ~reg ~rm =
  byte t pfx;
  rex ~w:true t ~reg ~rm;
  byte t 0x0F;
  byte t op;
  modrm t ~md:3 ~reg ~rm

let movq_x_r t ~dst ~src = sse_rr_w 0x66 0x6E t ~reg:dst ~rm:src
let cvtsi2sd t ~dst ~src = sse_rr_w 0xF2 0x2A t ~reg:dst ~rm:src
let cvttsd2si t ~dst ~src = sse_rr_w 0xF2 0x2C t ~reg:dst ~rm:src

(* ------------------------------------------------------------------ *)

let to_bytes t =
  let code = Buffer.to_bytes t.buf in
  List.iter
    (fun (at, l) ->
      let target = t.labels.(l) in
      if target < 0 then invalid_arg "Encoder.to_bytes: unbound label";
      let rel = target - (at + 4) in
      Bytes.set code at (Char.chr (rel land 0xff));
      Bytes.set code (at + 1) (Char.chr ((rel asr 8) land 0xff));
      Bytes.set code (at + 2) (Char.chr ((rel asr 16) land 0xff));
      Bytes.set code (at + 3) (Char.chr ((rel asr 24) land 0xff)))
    t.fixups;
  code

let hex_of code ~pos ~len =
  String.concat " "
    (List.init len (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get code (pos + i)))))
