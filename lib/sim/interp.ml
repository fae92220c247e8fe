open Lsra_ir
open Lsra_target

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type counts = {
  mutable total : int;
  mutable cycles : int;
  mutable calls : int;
  mutable evict_loads : int;
  mutable evict_stores : int;
  mutable evict_moves : int;
  mutable resolve_loads : int;
  mutable resolve_stores : int;
  mutable resolve_moves : int;
}

let fresh_counts () =
  {
    total = 0;
    cycles = 0;
    calls = 0;
    evict_loads = 0;
    evict_stores = 0;
    evict_moves = 0;
    resolve_loads = 0;
    resolve_stores = 0;
    resolve_moves = 0;
  }

let spill_total c =
  c.evict_loads + c.evict_stores + c.evict_moves + c.resolve_loads
  + c.resolve_stores + c.resolve_moves

type outcome = { counts : counts; output : string; ret : Value.t }

type state = {
  machine : Machine.t;
  prog : Program.t;
  iregs : Value.t array;
  fregs : Value.t array;
  heap : Value.t array;
  mutable brk : int; (* bump allocator frontier *)
  input : string;
  mutable in_pos : int;
  out : Buffer.t;
  counts : counts;
  mutable fuel : int;
}

let reg_get st r =
  match Mreg.cls r with
  | Rclass.Int -> st.iregs.(Mreg.idx r)
  | Rclass.Float -> st.fregs.(Mreg.idx r)

let reg_set st r v =
  match Mreg.cls r with
  | Rclass.Int -> st.iregs.(Mreg.idx r) <- v
  | Rclass.Float -> st.fregs.(Mreg.idx r) <- v

type frame = { temps : Value.t array; slots : Value.t array }

let loc_get st fr (l : Loc.t) =
  match l with
  | Loc.Temp t -> fr.temps.(Temp.id t)
  | Loc.Reg r -> reg_get st r

let loc_set st fr (l : Loc.t) v =
  match l with
  | Loc.Temp t -> fr.temps.(Temp.id t) <- v
  | Loc.Reg r -> reg_set st r v

let operand st fr (o : Operand.t) =
  match o with
  | Operand.Loc l -> loc_get st fr l
  | Operand.Int i -> Value.Int i
  | Operand.Float f -> Value.Flt f

let as_int what = function
  | Value.Int i -> i
  | Value.Flt _ -> trap "%s: expected an integer, got a float" what
  | Value.Undef -> trap "%s: read of an undefined value" what

let as_flt what = function
  | Value.Flt f -> f
  | Value.Int _ -> trap "%s: expected a float, got an integer" what
  | Value.Undef -> trap "%s: read of an undefined value" what

let eval_binop op a b =
  let open Instr in
  match op with
  | Add -> Value.Int (as_int "add" a + as_int "add" b)
  | Sub -> Value.Int (as_int "sub" a - as_int "sub" b)
  | Mul -> Value.Int (as_int "mul" a * as_int "mul" b)
  | Div ->
    let d = as_int "div" b in
    if d = 0 then trap "division by zero";
    Value.Int (as_int "div" a / d)
  | Rem ->
    let d = as_int "rem" b in
    if d = 0 then trap "remainder by zero";
    Value.Int (as_int "rem" a mod d)
  | And -> Value.Int (as_int "and" a land as_int "and" b)
  | Or -> Value.Int (as_int "or" a lor as_int "or" b)
  | Xor -> Value.Int (as_int "xor" a lxor as_int "xor" b)
  | Sll -> Value.Int (as_int "sll" a lsl (as_int "sll" b land 31))
  | Srl -> Value.Int (as_int "srl" a lsr (as_int "srl" b land 31))
  | Sra -> Value.Int (as_int "sra" a asr (as_int "sra" b land 31))
  | Fadd -> Value.Flt (as_flt "fadd" a +. as_flt "fadd" b)
  | Fsub -> Value.Flt (as_flt "fsub" a -. as_flt "fsub" b)
  | Fmul -> Value.Flt (as_flt "fmul" a *. as_flt "fmul" b)
  | Fdiv -> Value.Flt (as_flt "fdiv" a /. as_flt "fdiv" b)

let eval_unop op v =
  let open Instr in
  match op with
  | Neg -> Value.Int (-as_int "neg" v)
  | Not -> Value.Int (lnot (as_int "not" v))
  | Fneg -> Value.Flt (-.as_flt "fneg" v)
  | Itof -> Value.Flt (float_of_int (as_int "itof" v))
  | Ftoi -> Value.Int (int_of_float (as_flt "ftoi" v))

let eval_cmp op a b =
  let open Instr in
  let bi b = Value.Int (if b then 1 else 0) in
  match op with
  | Eq -> bi (as_int "cmp" a = as_int "cmp" b)
  | Ne -> bi (as_int "cmp" a <> as_int "cmp" b)
  | Lt -> bi (as_int "cmp" a < as_int "cmp" b)
  | Le -> bi (as_int "cmp" a <= as_int "cmp" b)
  | Gt -> bi (as_int "cmp" a > as_int "cmp" b)
  | Ge -> bi (as_int "cmp" a >= as_int "cmp" b)
  | Feq -> bi (Float.equal (as_flt "fcmp" a) (as_flt "fcmp" b))
  | Fne -> bi (not (Float.equal (as_flt "fcmp" a) (as_flt "fcmp" b)))
  | Flt -> bi (as_flt "fcmp" a < as_flt "fcmp" b)
  | Fle -> bi (as_flt "fcmp" a <= as_flt "fcmp" b)

let heap_addr st what a =
  let i = as_int what a in
  if i < 0 || i >= Array.length st.heap then
    trap "%s: heap address %d out of bounds" what i;
  i

let note_spill st (i : Instr.t) =
  match Instr.tag i with
  | Instr.Original -> ()
  | Instr.Spill { phase; kind } -> (
    let c = st.counts in
    match phase, kind with
    | Instr.Evict, Instr.Spill_ld -> c.evict_loads <- c.evict_loads + 1
    | Instr.Evict, Instr.Spill_st -> c.evict_stores <- c.evict_stores + 1
    | Instr.Evict, Instr.Spill_mv -> c.evict_moves <- c.evict_moves + 1
    | Instr.Resolve, Instr.Spill_ld -> c.resolve_loads <- c.resolve_loads + 1
    | Instr.Resolve, Instr.Spill_st ->
      c.resolve_stores <- c.resolve_stores + 1
    | Instr.Resolve, Instr.Spill_mv ->
      c.resolve_moves <- c.resolve_moves + 1)

(* The [i]-th [cls] argument of external routine [name]: a trap when the
   machine has no such argument register. *)
let ext_arg st name cls i =
  let m = st.machine in
  let args =
    match (cls : Rclass.t) with
    | Rclass.Int -> Machine.int_args m
    | Rclass.Float -> Machine.float_args m
  in
  if i >= List.length args then
    trap "%s: %s has no %s argument register %d" name (Machine.name m)
      (Rclass.to_string cls) i;
  reg_get st (Machine.arg_reg m cls i)

(* External routines. Arguments arrive in the convention's argument
   registers; results leave in the return register; all caller-saved
   registers are poisoned, which is what a real (separately compiled)
   callee may do to them. *)
let intrinsic st name =
  let iarg i = ext_arg st name Rclass.Int i in
  let farg i = ext_arg st name Rclass.Float i in
  let ret = ref None in
  (match name with
  | "ext_getc" ->
    let v =
      if st.in_pos >= String.length st.input then -1
      else begin
        let c = Char.code st.input.[st.in_pos] in
        st.in_pos <- st.in_pos + 1;
        c
      end
    in
    ret := Some (Value.Int v)
  | "ext_putc" ->
    let c = as_int "ext_putc" (iarg 0) in
    Buffer.add_char st.out (Char.chr (c land 255));
    ret := Some (Value.Int 0)
  | "ext_puti" ->
    Buffer.add_string st.out (string_of_int (as_int "ext_puti" (iarg 0)));
    Buffer.add_char st.out '\n';
    ret := Some (Value.Int 0)
  | "ext_putf" ->
    Buffer.add_string st.out
      (Printf.sprintf "%.6f\n" (as_flt "ext_putf" (farg 0)));
    ret := Some (Value.Int 0)
  | "ext_alloc" ->
    let words = as_int "ext_alloc" (iarg 0) in
    if words < 0 then trap "ext_alloc: negative size";
    if st.brk + words > Array.length st.heap then trap "ext_alloc: heap full";
    let a = st.brk in
    st.brk <- st.brk + words;
    Array.fill st.heap a words (Value.Int 0);
    ret := Some (Value.Int a)
  | _ -> trap "unknown external function %s" name);
  !ret

let run ?(fuel = 200_000_000) machine prog ~input =
  Program.validate prog;
  let st =
    {
      machine;
      prog;
      iregs = Array.make (Machine.n_regs machine Rclass.Int) Value.Undef;
      fregs = Array.make (Machine.n_regs machine Rclass.Float) Value.Undef;
      heap = Array.make (Program.heap_words prog) Value.Undef;
      brk = 0;
      input;
      in_pos = 0;
      out = Buffer.create 256;
      counts = fresh_counts ();
      fuel;
    }
  in
  let rec exec_func (func : Func.t) =
    let cfg = Func.cfg func in
    let fr =
      {
        temps = Array.make (Func.temp_bound func) Value.Undef;
        slots = Array.make (Func.n_slots func) Value.Undef;
      }
    in
    let rec exec_block (b : Block.t) =
      let body = Block.body b in
      Array.iter (fun i -> exec_instr fr i) body;
      st.counts.total <- st.counts.total + 1;
      st.counts.cycles <- st.counts.cycles + Cycles.of_terminator (Block.term b);
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then trap "out of fuel";
      match Block.term b with
      | Block.Jump l -> exec_block (Cfg.block cfg l)
      | Block.Branch { op; a; b = rhs; ifso; ifnot } ->
        let v = eval_cmp op (operand st fr a) (operand st fr rhs) in
        let taken = as_int "branch" v <> 0 in
        exec_block (Cfg.block cfg (if taken then ifso else ifnot))
      | Block.Ret -> ()
    and exec_instr fr (i : Instr.t) =
      st.counts.total <- st.counts.total + 1;
      st.counts.cycles <- st.counts.cycles + Cycles.of_instr i;
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then trap "out of fuel";
      note_spill st i;
      match Instr.desc i with
      | Instr.Move { dst; src } -> loc_set st fr dst (operand st fr src)
      | Instr.Bin { op; dst; a; b } ->
        loc_set st fr dst (eval_binop op (operand st fr a) (operand st fr b))
      | Instr.Un { op; dst; src } ->
        loc_set st fr dst (eval_unop op (operand st fr src))
      | Instr.Cmp { op; dst; a; b } ->
        loc_set st fr dst (eval_cmp op (operand st fr a) (operand st fr b))
      | Instr.Load { dst; base; off } ->
        let a = heap_addr st "load" (operand st fr base) in
        let a = a + off in
        if a < 0 || a >= Array.length st.heap then
          trap "load: address %d out of bounds" a;
        loc_set st fr dst st.heap.(a)
      | Instr.Store { src; base; off } ->
        let a = heap_addr st "store" (operand st fr base) in
        let a = a + off in
        if a < 0 || a >= Array.length st.heap then
          trap "store: address %d out of bounds" a;
        st.heap.(a) <- operand st fr src
      | Instr.Spill_load { dst; slot } ->
        if slot >= Array.length fr.slots then trap "spill load: bad slot";
        loc_set st fr dst fr.slots.(slot)
      | Instr.Spill_store { src; slot } ->
        if slot >= Array.length fr.slots then trap "spill store: bad slot";
        fr.slots.(slot) <- loc_get st fr src
      | Instr.Call { func = name; rets; clobbers; args = _ } ->
        st.counts.calls <- st.counts.calls + 1;
        let intrinsic_result =
          if String.length name >= 4 && String.sub name 0 4 = "ext_" then
            Some (intrinsic st name)
          else None
        in
        (match intrinsic_result with
        | Some r ->
          List.iter
            (fun cr ->
              if not (List.exists (Mreg.equal cr) rets) then
                reg_set st cr Value.Undef)
            clobbers;
          (match r, rets with
          | Some v, ret_reg :: _ -> reg_set st ret_reg v
          | Some _, [] | None, _ -> ())
        | None ->
          let callee =
            match Program.find st.prog name with
            | Some f -> f
            | None -> trap "call to unknown function %s" name
          in
          (* Callee-saved registers are preserved across the call (the
             callee's save/restore obligation, provided by the runtime);
             caller-saved registers other than results are poisoned. *)
          let saved =
            List.map
              (fun r -> (r, reg_get st r))
              (Machine.callee_saved machine Rclass.Int
              @ Machine.callee_saved machine Rclass.Float)
          in
          exec_func callee;
          let results = List.map (fun r -> (r, reg_get st r)) rets in
          List.iter (fun (r, v) -> reg_set st r v) saved;
          List.iter
            (fun cr ->
              if not (List.exists (Mreg.equal cr) rets) then
                reg_set st cr Value.Undef)
            clobbers;
          List.iter (fun (r, v) -> reg_set st r v) results)
      | Instr.Nop -> ()
    in
    exec_block (Cfg.entry_block cfg)
  in
  match exec_func (Program.find_exn prog (Program.main prog)) with
  | () ->
    Ok
      {
        counts = st.counts;
        output = Buffer.contents st.out;
        ret = reg_get st (Machine.ret_reg machine Rclass.Int);
      }
  | exception Trap msg -> Error msg
