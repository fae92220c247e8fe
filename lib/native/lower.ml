open Lsra_ir
open Lsra_target
module E = Encoder

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type note =
  | Insn of Instr.t
  | Label of string
  | Goto of string
  | Cond of { ifso : string; ifnot : string }
  | Prologue of { slots : int; save_area : int; frame_bytes : int }
  | Text of string

type compiled = {
  code : bytes;
  fn_offsets : (string * int) list;
  listing : (string * int * note) list;
  n_iregs : int;
  n_fregs : int;
}

(* Bump whenever the emitted bytes change meaning: this string is a
   component of native-mode cache keys. *)
let fingerprint = "x86-64-sysv-v1;direct=rbx,r12,r13,r15;ctx=r14;norm63"

(* Context structure layout — must match struct lsra_ctx in
   lsra_native_stubs.c byte for byte. *)
let off_heap = 0
let off_heap_words = 8
let _off_brk = 16
let off_fuel = 24
let off_trap = 32
let _off_cb = 40
let off_helper = 48
let off_regs = 56

(* Trap codes, decoded by Exec. *)
let trap_div0 = 1
let trap_oob = 2
let trap_fuel_code = 3
let trap_ext = 4
let trap_unknown_fn = 5

(* Abstract integer registers 0..3 direct-mapped to callee-saved GPRs;
   R14 is reserved for the context, RBP for the frame. *)
let direct_pool = [| E.rbx; E.r12; E.r13; E.r15 |]
let ctx = E.r14

type env = {
  e : E.t;
  m : Machine.t;
  n_int : int;
  n_direct : int;
  fn_labels : (string, E.label) Hashtbl.t;
  mutable notes : (string * int * note) list; (* reversed *)
  mutable cur_fn : string;
  (* Per-function state, reset by emit_func. *)
  mutable epi : E.label;
  mutable l_div : E.label;
  mutable l_oob : E.label;
  mutable l_fuel : E.label;
  mutable n_slots : int;
}

(* Notes keep what they describe; only [dump_asm] renders them. *)
let note env n = env.notes <- (env.cur_fn, E.pos env.e, n) :: env.notes

let ireg_off _env i = off_regs + (8 * i)
let freg_off env j = off_regs + (8 * (env.n_int + j))

type vloc = Direct of int | Banked of int

let vloc env (r : Mreg.t) =
  match Mreg.cls r with
  | Rclass.Int ->
    let i = Mreg.idx r in
    if i < env.n_direct then Direct direct_pool.(i)
    else Banked (ireg_off env i)
  | Rclass.Float -> Banked (freg_off env (Mreg.idx r))

(* Raw 64-bit moves between a machine register's home and a scratch
   GPR. Float registers are banked, so these work uniformly for both
   classes (the bits travel through a GPR untouched). *)
let load_reg env dst r =
  match vloc env r with
  | Direct g -> if g <> dst then E.mov_rr env.e ~dst ~src:g
  | Banked disp -> E.mov_rm env.e ~dst ~base:ctx ~disp

let store_reg env r src =
  match vloc env r with
  | Direct g -> if g <> src then E.mov_rr env.e ~dst:g ~src
  | Banked disp -> E.mov_mr env.e ~base:ctx ~disp ~src

let load_loc env dst (l : Loc.t) =
  match l with
  | Loc.Reg r -> load_reg env dst r
  | Loc.Temp _ -> unsupported "unallocated temporary survives in '%s'"
                    env.cur_fn

let store_loc env (l : Loc.t) src =
  match l with
  | Loc.Reg r -> store_reg env r src
  | Loc.Temp _ -> unsupported "unallocated temporary survives in '%s'"
                    env.cur_fn

let load_operand env dst (o : Operand.t) =
  match o with
  | Operand.Int v -> E.mov_ri env.e ~dst (Int64.of_int v)
  | Operand.Float f -> E.mov_ri env.e ~dst (Int64.bits_of_float f)
  | Operand.Loc l -> load_loc env dst l

let load_xmm env x (o : Operand.t) =
  match o with
  | Operand.Float f ->
    E.mov_ri env.e ~dst:E.rax (Int64.bits_of_float f);
    E.movq_x_r env.e ~dst:x ~src:E.rax
  | Operand.Loc (Loc.Reg r) when Mreg.cls r = Rclass.Float -> (
    match vloc env r with
    | Banked disp -> E.movsd_x_m env.e ~dst:x ~base:ctx ~disp
    | Direct _ -> assert false)
  | Operand.Loc (Loc.Temp _) ->
    unsupported "unallocated temporary survives in '%s'" env.cur_fn
  | Operand.Int _ | Operand.Loc (Loc.Reg _) ->
    unsupported "integer operand in float position in '%s'" env.cur_fn

let store_xmm env (l : Loc.t) x =
  match l with
  | Loc.Reg r when Mreg.cls r = Rclass.Float -> (
    match vloc env r with
    | Banked disp -> E.movsd_m_x env.e ~base:ctx ~disp ~src:x
    | Direct _ -> assert false)
  | Loc.Temp _ ->
    unsupported "unallocated temporary survives in '%s'" env.cur_fn
  | Loc.Reg _ -> unsupported "float result into integer register"

(* The interpreter computes on OCaml ints: 63 bits, wrapping. Re-deriving
   bit 63 from bit 62 after every integer result makes the 64-bit
   datapath agree exactly. *)
let norm63 env r =
  E.shl_i env.e r 1;
  E.sar_i env.e r 1

(* Frame layout: slot [s] at rbp-8(s+1); the callee-saved save area for
   IR calls sits just above the slots. *)
let slot_disp s = -8 * (s + 1)
let save_disp env k = -8 * (env.n_slots + k + 1)

let abstract_callee_saved env =
  Machine.callee_saved env.m Rclass.Int
  @ Machine.callee_saved env.m Rclass.Float

(* Heap addressing with the interpreter's two-stage bounds protocol:
   the base address must itself be in bounds, then the offset address
   must be too. Addresses are normalised 63-bit values, so one unsigned
   compare per stage catches negatives as well. Leaves the word index
   in RAX. *)
let heap_addr env base off =
  load_operand env E.rax base;
  E.cmp_rm env.e E.rax ~base:ctx ~disp:off_heap_words;
  E.jcc env.e E.AE env.l_oob;
  if off <> 0 then begin
    E.add_ri env.e E.rax off;
    E.cmp_rm env.e E.rax ~base:ctx ~disp:off_heap_words;
    E.jcc env.e E.AE env.l_oob
  end

let cc_of_cmp (op : Instr.cmp) =
  match op with
  | Instr.Eq -> E.E
  | Instr.Ne -> E.NE
  | Instr.Lt -> E.L
  | Instr.Le -> E.LE
  | Instr.Gt -> E.G
  | Instr.Ge -> E.GE
  | Instr.Feq | Instr.Fne | Instr.Flt | Instr.Fle -> assert false

(* Evaluate a comparison to 0/1 in RAX. Float equality must match
   OCaml's [Float.equal]: IEEE equality except that two NaNs compare
   equal — hence the ordered-equal test patched with a both-NaN test. *)
let eval_cond env (op : Instr.cmp) a b =
  let e = env.e in
  match op with
  | Instr.Eq | Instr.Ne | Instr.Lt | Instr.Le | Instr.Gt | Instr.Ge ->
    load_operand env E.rax a;
    load_operand env E.rcx b;
    E.cmp_rr e E.rax E.rcx;
    E.setcc e (cc_of_cmp op) E.rax;
    E.movzx_r8 e ~dst:E.rax ~src:E.rax
  | Instr.Feq | Instr.Fne ->
    load_xmm env 0 a;
    load_xmm env 1 b;
    E.ucomisd e 0 1;
    E.setcc e E.E E.rax;
    E.setcc e E.NP E.rcx;
    E.and8_rr e ~dst:E.rax ~src:E.rcx;
    E.ucomisd e 0 0;
    E.setcc e E.P E.rcx;
    E.ucomisd e 1 1;
    E.setcc e E.P E.rdx;
    E.and8_rr e ~dst:E.rcx ~src:E.rdx;
    E.or8_rr e ~dst:E.rax ~src:E.rcx;
    if op = Instr.Fne then E.xor_al_i e 1;
    E.movzx_r8 e ~dst:E.rax ~src:E.rax
  | Instr.Flt | Instr.Fle ->
    load_xmm env 0 a;
    load_xmm env 1 b;
    (* a < b  ⟺  b `ucomisd` a sets "above"; unordered fails both. *)
    E.ucomisd e 1 0;
    E.setcc e (if op = Instr.Flt then E.A else E.AE) E.rax;
    E.movzx_r8 e ~dst:E.rax ~src:E.rax

let emit_int_bin env (op : Instr.binop) dst a b =
  let e = env.e in
  load_operand env E.rax a;
  load_operand env E.rcx b;
  (match op with
  | Instr.Add ->
    E.add_rr e ~dst:E.rax ~src:E.rcx;
    norm63 env E.rax
  | Instr.Sub ->
    E.sub_rr e ~dst:E.rax ~src:E.rcx;
    norm63 env E.rax
  | Instr.Mul ->
    E.imul_rr e ~dst:E.rax ~src:E.rcx;
    norm63 env E.rax
  | Instr.And -> E.and_rr e ~dst:E.rax ~src:E.rcx
  | Instr.Or -> E.or_rr e ~dst:E.rax ~src:E.rcx
  | Instr.Xor -> E.xor_rr e ~dst:E.rax ~src:E.rcx
  | Instr.Div ->
    E.test_rr e E.rcx E.rcx;
    E.jcc e E.E env.l_div;
    E.cqo e;
    E.idiv e E.rcx;
    norm63 env E.rax
  | Instr.Rem ->
    E.test_rr e E.rcx E.rcx;
    E.jcc e E.E env.l_div;
    E.cqo e;
    E.idiv e E.rcx;
    E.mov_rr e ~dst:E.rax ~src:E.rdx;
    norm63 env E.rax
  | Instr.Sll ->
    E.and_ri8 e E.rcx 31;
    E.shl_cl e E.rax;
    norm63 env E.rax
  | Instr.Srl ->
    (* OCaml lsr is a 63-bit logical shift: clear bit 63 first so the
       64-bit shift sees exactly the 63-bit pattern, then renormalise
       (a count of 0 must restore the sign extension). *)
    E.and_ri8 e E.rcx 31;
    E.shl_i e E.rax 1;
    E.shr_i e E.rax 1;
    E.shr_cl e E.rax;
    norm63 env E.rax
  | Instr.Sra ->
    (* Arithmetic shift commutes with sign extension: no fixup. *)
    E.and_ri8 e E.rcx 31;
    E.sar_cl e E.rax
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> assert false);
  store_loc env dst E.rax

let emit_float_bin env (op : Instr.binop) dst a b =
  let e = env.e in
  load_xmm env 0 a;
  load_xmm env 1 b;
  (match op with
  | Instr.Fadd -> E.addsd e ~dst:0 ~src:1
  | Instr.Fsub -> E.subsd e ~dst:0 ~src:1
  | Instr.Fmul -> E.mulsd e ~dst:0 ~src:1
  | Instr.Fdiv -> E.divsd e ~dst:0 ~src:1
  | _ -> assert false);
  store_xmm env dst 0

let ext_id = function
  | "ext_getc" -> Some 1
  | "ext_putc" -> Some 2
  | "ext_puti" -> Some 3
  | "ext_putf" -> Some 4
  | "ext_alloc" -> Some 5
  | _ -> None

let is_ext name = String.length name >= 4 && String.sub name 0 4 = "ext_"

let emit_trap env code =
  E.mov_mi env.e ~base:ctx ~disp:off_trap code;
  E.jmp env.e env.epi

(* After any call — C helper or IR — a pending trap in the context
   aborts straight through the epilogue chain. *)
let check_trap env =
  E.cmp_mi8 env.e ~base:ctx ~disp:off_trap 0;
  E.jcc env.e E.NE env.epi

let emit_ext_call env id rets =
  let e = env.e in
  E.mov_rr e ~dst:E.rdi ~src:ctx;
  E.mov_ri e ~dst:E.rsi (Int64.of_int id);
  (match Machine.int_args env.m with
  | a0 :: _ -> load_reg env E.rdx a0
  | [] -> E.xor_rr e ~dst:E.rdx ~src:E.rdx);
  (match Machine.float_args env.m with
  | f0 :: _ -> load_reg env E.rcx f0
  | [] -> E.xor_rr e ~dst:E.rcx ~src:E.rcx);
  E.mov_rm e ~dst:E.rax ~base:ctx ~disp:off_helper;
  E.call_reg e E.rax;
  check_trap env;
  match rets with
  | r :: _ -> store_reg env r E.rax
  | [] -> ()

let emit_ir_call env name rets =
  let e = env.e in
  let saved = abstract_callee_saved env in
  (* The interpreter's runtime saves every abstract callee-saved
     register around a call and restores all but the result registers;
     replicate that contract through the frame's save area. *)
  List.iteri
    (fun k r ->
      load_reg env E.rax r;
      E.mov_mr e ~base:E.rbp ~disp:(save_disp env k) ~src:E.rax)
    saved;
  (match Hashtbl.find_opt env.fn_labels name with
  | Some l -> E.call_label e l
  | None -> emit_trap env trap_unknown_fn);
  check_trap env;
  List.iteri
    (fun k r ->
      if not (List.exists (Mreg.equal r) rets) then begin
        E.mov_rm e ~dst:E.rax ~base:E.rbp ~disp:(save_disp env k);
        store_reg env r E.rax
      end)
    saved

let emit_instr env (i : Instr.t) =
  note env (Insn i);
  match Instr.desc i with
  | Instr.Nop -> ()
  | Instr.Move { dst; src } -> (
    (* Raw 64-bit copy: float homes are banked, so bits via a GPR are
       exact for both classes. *)
    match src with
    | Operand.Int v ->
      E.mov_ri env.e ~dst:E.rax (Int64.of_int v);
      store_loc env dst E.rax
    | Operand.Float f ->
      E.mov_ri env.e ~dst:E.rax (Int64.bits_of_float f);
      store_loc env dst E.rax
    | Operand.Loc l ->
      load_loc env E.rax l;
      store_loc env dst E.rax)
  | Instr.Bin { op; dst; a; b } -> (
    match op with
    | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
      emit_float_bin env op dst a b
    | _ -> emit_int_bin env op dst a b)
  | Instr.Un { op; dst; src } -> (
    let e = env.e in
    match op with
    | Instr.Neg ->
      load_operand env E.rax src;
      E.neg e E.rax;
      norm63 env E.rax;
      store_loc env dst E.rax
    | Instr.Not ->
      load_operand env E.rax src;
      E.not_ e E.rax;
      store_loc env dst E.rax
    | Instr.Fneg ->
      (* Sign-bit flip on the raw bits (OCaml [~-.] negates NaNs too). *)
      load_operand env E.rax src;
      E.mov_ri e ~dst:E.rcx Int64.min_int;
      E.xor_rr e ~dst:E.rax ~src:E.rcx;
      store_loc env dst E.rax
    | Instr.Itof ->
      load_operand env E.rax src;
      E.cvtsi2sd e ~dst:0 ~src:E.rax;
      store_xmm env dst 0
    | Instr.Ftoi ->
      (* cvttsd2si truncates toward zero like [int_of_float]; the
         out-of-range indefinite (min_int64) renormalises to the same
         63-bit wrap the OCaml cast produces. *)
      load_xmm env 0 src;
      E.cvttsd2si e ~dst:E.rax ~src:0;
      norm63 env E.rax;
      store_loc env dst E.rax)
  | Instr.Cmp { op; dst; a; b } ->
    eval_cond env op a b;
    store_loc env dst E.rax
  | Instr.Load { dst; base; off } ->
    heap_addr env base off;
    E.mov_rm env.e ~dst:E.r11 ~base:ctx ~disp:off_heap;
    E.mov_r_sib env.e ~dst:E.rax ~base:E.r11 ~index:E.rax;
    store_loc env dst E.rax
  | Instr.Store { src; base; off } ->
    heap_addr env base off;
    load_operand env E.rcx src;
    E.mov_rm env.e ~dst:E.r11 ~base:ctx ~disp:off_heap;
    E.mov_sib_r env.e ~base:E.r11 ~index:E.rax ~src:E.rcx
  | Instr.Spill_load { dst; slot } ->
    if slot < 0 || slot >= env.n_slots then
      unsupported "spill load from bad slot %d in '%s'" slot env.cur_fn;
    E.mov_rm env.e ~dst:E.rax ~base:E.rbp ~disp:(slot_disp slot);
    store_loc env dst E.rax
  | Instr.Spill_store { src; slot } ->
    if slot < 0 || slot >= env.n_slots then
      unsupported "spill store to bad slot %d in '%s'" slot env.cur_fn;
    load_loc env E.rax src;
    E.mov_mr env.e ~base:E.rbp ~disp:(slot_disp slot) ~src:E.rax
  | Instr.Call { func = name; rets; args = _; clobbers = _ } -> (
    (* Clobber poisoning is an interpreter-only device (Undef has no
       bit pattern); programs that read a poisoned register trap in the
       interpreter, and the oracle only compares interpreter-clean
       runs. *)
    if is_ext name then
      match ext_id name with
      | Some id -> emit_ext_call env id rets
      | None -> emit_trap env trap_ext
    else emit_ir_call env name rets)

let emit_term env blk_label (term : Block.terminator) ~next =
  let e = env.e in
  let is_next l = match next with Some n -> n = l | None -> false in
  match term with
  | Block.Ret ->
    note env (Text "ret");
    if next <> None then E.jmp e env.epi
    (* else: last block falls through into the epilogue *)
  | Block.Jump l ->
    note env (Goto l);
    if not (is_next l) then E.jmp e (blk_label l)
  | Block.Branch { op; a; b; ifso; ifnot } ->
    note env (Cond { ifso; ifnot });
    eval_cond env op a b;
    E.test_rr e E.rax E.rax;
    if is_next ifnot then E.jcc e E.NE (blk_label ifso)
    else if is_next ifso then E.jcc e E.E (blk_label ifnot)
    else begin
      E.jcc e E.NE (blk_label ifso);
      E.jmp e (blk_label ifnot)
    end

let emit_func env name (f : Func.t) =
  let e = env.e in
  env.cur_fn <- name;
  env.epi <- E.new_label e;
  env.l_div <- E.new_label e;
  env.l_oob <- E.new_label e;
  env.l_fuel <- E.new_label e;
  env.n_slots <- Func.n_slots f;
  let saved = abstract_callee_saved env in
  let n_save = List.length saved in
  let frame_bytes = (((env.n_slots + n_save) * 8) + 15) / 16 * 16 in
  E.bind e (Hashtbl.find env.fn_labels name);
  note env
    (Prologue { slots = env.n_slots; save_area = n_save; frame_bytes });
  E.push e E.rbp;
  E.mov_rr e ~dst:E.rbp ~src:E.rsp;
  if frame_bytes > 0 then E.sub_rsp e frame_bytes;
  let cfg = Func.cfg f in
  let blocks = Cfg.blocks cfg in
  let entry = Cfg.entry cfg in
  let order =
    Cfg.entry_block cfg
    :: List.filter
         (fun b -> Block.label b <> entry)
         (Array.to_list blocks)
  in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun b -> Hashtbl.replace labels (Block.label b) (E.new_label e))
    order;
  let blk_label l =
    match Hashtbl.find_opt labels l with
    | Some bl -> bl
    | None -> unsupported "branch to unknown block '%s' in '%s'" l name
  in
  let rec emit_blocks = function
    | [] -> ()
    | b :: rest ->
      let next =
        match rest with [] -> None | n :: _ -> Some (Block.label n)
      in
      note env (Label (Block.label b));
      E.bind e (blk_label (Block.label b));
      (* One fuel tick per block: a strict under-count of the
         interpreter's per-instruction budget, so an interpreter-clean
         run can never exhaust fuel natively. *)
      E.dec_m e ~base:ctx ~disp:off_fuel;
      E.jcc e E.LE env.l_fuel;
      Array.iter (emit_instr env) (Block.body b);
      emit_term env blk_label (Block.term b) ~next;
      emit_blocks rest
  in
  emit_blocks order;
  note env (Text "epilogue");
  E.bind e env.epi;
  E.mov_rr e ~dst:E.rsp ~src:E.rbp;
  E.pop e E.rbp;
  E.ret e;
  note env (Text "trap stubs");
  E.bind e env.l_div;
  emit_trap env trap_div0;
  E.bind e env.l_oob;
  emit_trap env trap_oob;
  E.bind e env.l_fuel;
  emit_trap env trap_fuel_code

(* The entry stub is the code's only entry point: C-callable
   (void (*)(ctx*)), saves the C-side callee-saved registers we
   repurpose, seeds the direct-mapped registers from the bank, runs
   main, and spills them back so OCaml can read results. *)
let emit_entry env main_label =
  let e = env.e in
  env.cur_fn <- "<entry>";
  note env (Text "entry stub");
  E.push e E.rbp;
  E.mov_rr e ~dst:E.rbp ~src:E.rsp;
  E.push e E.rbx;
  E.push e E.r12;
  E.push e E.r13;
  E.push e E.r14;
  E.push e E.r15;
  E.sub_rsp e 8;
  E.mov_rr e ~dst:ctx ~src:E.rdi;
  for i = 0 to env.n_direct - 1 do
    E.mov_rm e ~dst:direct_pool.(i) ~base:ctx ~disp:(ireg_off env i)
  done;
  E.call_label e main_label;
  for i = 0 to env.n_direct - 1 do
    E.mov_mr e ~base:ctx ~disp:(ireg_off env i) ~src:direct_pool.(i)
  done;
  E.add_rsp e 8;
  E.pop e E.r15;
  E.pop e E.r14;
  E.pop e E.r13;
  E.pop e E.r12;
  E.pop e E.rbx;
  E.pop e E.rbp;
  E.ret e

let compile machine prog =
  let e = E.create () in
  let env =
    {
      e;
      m = machine;
      n_int = Machine.n_regs machine Rclass.Int;
      n_direct = min (Array.length direct_pool)
                   (Machine.n_regs machine Rclass.Int);
      fn_labels = Hashtbl.create 8;
      notes = [];
      cur_fn = "<entry>";
      epi = E.new_label e;
      l_div = E.new_label e;
      l_oob = E.new_label e;
      l_fuel = E.new_label e;
      n_slots = 0;
    }
  in
  try
    List.iter
      (fun (name, _) -> Hashtbl.replace env.fn_labels name (E.new_label e))
      (Program.funcs prog);
    let main_label =
      match Hashtbl.find_opt env.fn_labels (Program.main prog) with
      | Some l -> l
      | None -> unsupported "main function '%s' missing" (Program.main prog)
    in
    emit_entry env main_label;
    List.iter (fun (name, f) -> emit_func env name f) (Program.funcs prog);
    let code = E.to_bytes e in
    let fn_offsets =
      List.filter_map
        (fun (name, _) ->
          match E.label_pos e (Hashtbl.find env.fn_labels name) with
          | Some p -> Some (name, p)
          | None -> None)
        (Program.funcs prog)
    in
    Ok
      {
        code;
        fn_offsets;
        listing = List.rev env.notes;
        n_iregs = env.n_int;
        n_fregs = Machine.n_regs machine Rclass.Float;
      }
  with
  | Unsupported msg -> Error msg
  | Invalid_argument msg -> Error ("encoding failed: " ^ msg)

let note_to_string = function
  | Insn i -> Instr.to_string i
  | Label l -> l ^ ":"
  | Goto l -> "jump " ^ l
  | Cond { ifso; ifnot } -> Printf.sprintf "branch %s / %s" ifso ifnot
  | Prologue { slots; save_area; frame_bytes } ->
    Printf.sprintf "prologue (slots=%d, save-area=%d, frame=%d bytes)" slots
      save_area frame_bytes
  | Text s -> s

let dump_asm ?fn c =
  let buf = Buffer.create 4096 in
  let size = Bytes.length c.code in
  let rec walk = function
    | [] -> ()
    | (f, off, note) :: rest ->
      let next =
        match rest with (_, n, _) :: _ -> n | [] -> size
      in
      if match fn with None -> true | Some want -> want = f then begin
        let text = note_to_string note in
        match note with
        | Label _ ->
          Buffer.add_string buf (Printf.sprintf "%06x %s\n" off text)
        | Insn _ | Goto _ | Cond _ | Prologue _ | Text _ ->
          Buffer.add_string buf (Printf.sprintf "%06x   %-40s" off text);
          (* Hex of everything this note emitted, wrapped in 12-byte
             rows so long sequences (call save/restore) stay readable. *)
          let len = next - off in
          let row = 12 in
          let pos = ref off in
          let first = ref true in
          while !pos < off + len do
            let n = min row (off + len - !pos) in
            if not !first then
              Buffer.add_string buf (Printf.sprintf "%06x   %-40s" !pos "");
            Buffer.add_string buf (E.hex_of c.code ~pos:!pos ~len:n);
            Buffer.add_char buf '\n';
            first := false;
            pos := !pos + n
          done;
          if len = 0 then Buffer.add_char buf '\n'
      end;
      walk rest
  in
  Buffer.add_string buf
    (Printf.sprintf "; %d bytes, %d functions  [%s]\n" size
       (List.length c.fn_offsets) fingerprint);
  walk c.listing;
  Buffer.contents buf
