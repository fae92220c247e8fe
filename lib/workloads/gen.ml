open Lsra_ir
open Lsra_target

(* Seeded random structured programs for differential testing.

   Generated programs are always well-defined: every temporary is
   initialised in the entry block before any other use, loops run a fixed
   number of iterations over dedicated counters, there is no division, and
   shift amounts are literal. They terminate, read no undefined values,
   and print a fold of their live state, so any allocation bug that
   corrupts a value changes the observable output.

   Termination is not a small bound: loop trip counts multiply through
   nested loops and down the acyclic call chain, so run length grows
   geometrically with [max_depth] and [n_funcs]. Under [hostile_params],
   seeds 1002 and 1003 run past 200 M dynamic instructions, the
   interpreter's default fuel, on both alpha and small:7:7. *)

type params = {
  seed : int;
  n_funcs : int;
  n_temps : int; (* per function, per class *)
  n_stmts : int; (* top-level statements per function *)
  max_depth : int; (* nesting of ifs/loops *)
  call_prob : float;
  ext_call_prob : float; (* observable ext_puti calls: clobber pressure *)
  switch_prob : float; (* multi-way branch cascades *)
  carried : int; (* loop-carried accumulators per carried loop *)
  float_frac : float;
}

let default_params =
  {
    seed = 42;
    n_funcs = 2;
    n_temps = 12;
    n_stmts = 20;
    max_depth = 2;
    call_prob = 0.15;
    ext_call_prob = 0.08;
    switch_prob = 0.1;
    carried = 3;
    float_frac = 0.3;
  }

(* Call-dense, deep-spill profile: many IR calls per function (so
   callee-saved save/restore sequences and caller-saved clobbers fire
   constantly) and far more live loop-carried accumulators than any
   machine has registers, forcing whole-lifetime spills with [Slots]
   frame indices around nested control flow — the shapes that stress a
   native backend's frame addressing and call protocol hardest. *)
let hostile_params ~seed =
  {
    seed;
    n_funcs = 4;
    n_temps = 24;
    n_stmts = 28;
    max_depth = 3;
    call_prob = 0.45;
    ext_call_prob = 0.15;
    switch_prob = 0.15;
    carried = 8;
    float_frac = 0.35;
  }

module B = Builder

type genstate = {
  rng : Random.State.t;
  machine : Machine.t;
  b : B.t;
  ints : Temp.t array;
  floats : Temp.t array;
  callees : string list;
  mutable label_n : int;
}

let fresh_label g prefix =
  g.label_n <- g.label_n + 1;
  Printf.sprintf "%s%d" prefix g.label_n

let pick g arr = arr.(Random.State.int g.rng (Array.length arr))

let int_binops =
  [| Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor |]

let float_binops = [| Instr.Fadd; Instr.Fsub; Instr.Fmul |]

let gen_int_expr g dst =
  match Random.State.int g.rng 5 with
  | 0 -> B.li g.b dst (Random.State.int g.rng 1000 - 500)
  | 1 ->
    B.bin g.b (pick g int_binops) dst
      (Operand.temp (pick g g.ints))
      (Operand.temp (pick g g.ints))
  | 2 ->
    B.bin g.b (pick g int_binops) dst
      (Operand.temp (pick g g.ints))
      (Operand.int (Random.State.int g.rng 64 + 1))
  | 3 ->
    B.bin g.b
      (if Random.State.bool g.rng then Instr.Sll else Instr.Srl)
      dst
      (Operand.temp (pick g g.ints))
      (Operand.int (Random.State.int g.rng 5))
  | _ ->
    if Array.length g.floats > 0 && Random.State.bool g.rng then
      B.un g.b Instr.Ftoi dst (Operand.temp (pick g g.floats))
    else
      B.cmp g.b
        (pick g [| Instr.Lt; Instr.Le; Instr.Eq; Instr.Ne |])
        dst
        (Operand.temp (pick g g.ints))
        (Operand.temp (pick g g.ints))

let gen_float_expr g dst =
  match Random.State.int g.rng 3 with
  | 0 -> B.lf g.b dst (float_of_int (Random.State.int g.rng 100) /. 8.0)
  | 1 ->
    B.bin g.b (pick g float_binops) dst
      (Operand.temp (pick g g.floats))
      (Operand.temp (pick g g.floats))
  | _ -> B.un g.b Instr.Itof dst (Operand.temp (pick g g.ints))

let gen_call g =
  match g.callees with
  | [] -> ()
  | _ :: _ ->
    let callee = List.nth g.callees (Random.State.int g.rng (List.length g.callees)) in
    let n_args = min 2 (List.length (Machine.int_args g.machine)) in
    let arg_regs = List.init n_args (Machine.arg_reg g.machine Rclass.Int) in
    List.iter
      (fun r -> B.move g.b (Loc.Reg r) (Operand.temp (pick g g.ints)))
      arg_regs;
    B.call g.b ~func:callee ~args:arg_regs
      ~rets:[ Machine.int_ret g.machine ]
      ~clobbers:(Machine.all_caller_saved g.machine);
    B.movet g.b (pick g g.ints) (Operand.reg (Machine.int_ret g.machine))

(* An observable call: print a live temp through ext_puti. Anything the
   allocator keeps in a caller-saved register across the call is poisoned
   by the interpreter, and the printed value itself joins the program's
   output — so this both raises call-clobber pressure and widens the
   differential oracle beyond the final return value. *)
let gen_ext_call g =
  match Machine.int_args g.machine with
  | [] ->
    (* a machine with no parameter registers (the minimal test targets)
       cannot pass the argument — fall back to plain arithmetic *)
    gen_int_expr g (pick g g.ints)
  | a0 :: _ ->
    B.move g.b (Loc.Reg a0) (Operand.temp (pick g g.ints));
    B.call g.b ~func:"ext_puti" ~args:[ a0 ]
      ~rets:[ Machine.int_ret g.machine ]
      ~clobbers:(Machine.all_caller_saved g.machine)

let rec gen_stmt p g depth =
  let r = Random.State.float g.rng 1.0 in
  if r < p.call_prob then gen_call g
  else if r < p.call_prob +. p.ext_call_prob then gen_ext_call g
  else if r < p.call_prob +. p.ext_call_prob +. p.switch_prob
          && depth < p.max_depth then gen_switch p g depth
  else if r < 0.65 || depth >= p.max_depth then
    if Array.length g.floats > 0 && Random.State.float g.rng 1.0 < p.float_frac
    then gen_float_expr g (pick g g.floats)
    else gen_int_expr g (pick g g.ints)
  else
    match Random.State.int g.rng 3 with
    | 0 -> gen_if p g depth
    | 1 -> gen_carried_loop p g depth
    | _ -> gen_loop p g depth

(* A multi-way cascade of conditional branches, all arms meeting at one
   join: much branchier control flow than a single diamond, with several
   CFG edges into the join for the resolution pass to repair. *)
and gen_switch p g depth =
  let arms = 2 + Random.State.int g.rng 3 in
  let l_join = fresh_label g "sj" in
  for _ = 1 to arms do
    let l_case = fresh_label g "sc" in
    let l_next = fresh_label g "sn" in
    B.branch g.b
      (pick g [| Instr.Lt; Instr.Ge; Instr.Eq; Instr.Ne |])
      (Operand.temp (pick g g.ints))
      (Operand.int (Random.State.int g.rng 32 - 16))
      ~ifso:l_case ~ifnot:l_next;
    B.start_block g.b l_case;
    for _ = 1 to 1 + Random.State.int g.rng 2 do
      gen_stmt p g (depth + 1)
    done;
    B.jump g.b l_join;
    B.start_block g.b l_next
  done;
  B.jump g.b l_join;
  B.start_block g.b l_join

and gen_if p g depth =
  let l_then = fresh_label g "t" in
  let l_else = fresh_label g "e" in
  let l_join = fresh_label g "j" in
  B.branch g.b
    (pick g [| Instr.Lt; Instr.Ge; Instr.Eq |])
    (Operand.temp (pick g g.ints))
    (Operand.temp (pick g g.ints))
    ~ifso:l_then ~ifnot:l_else;
  B.start_block g.b l_then;
  for _ = 1 to 1 + Random.State.int g.rng 3 do
    gen_stmt p g (depth + 1)
  done;
  B.jump g.b l_join;
  B.start_block g.b l_else;
  for _ = 1 to 1 + Random.State.int g.rng 3 do
    gen_stmt p g (depth + 1)
  done;
  B.start_block g.b l_join

and gen_loop p g depth =
  let i = B.temp g.b Rclass.Int in
  let bound = 2 + Random.State.int g.rng 6 in
  let l_head = fresh_label g "h" in
  let l_body = fresh_label g "b" in
  let l_exit = fresh_label g "x" in
  B.li g.b i 0;
  B.start_block g.b l_head;
  B.branch g.b Instr.Lt (Operand.temp i) (Operand.int bound) ~ifso:l_body
    ~ifnot:l_exit;
  B.start_block g.b l_body;
  for _ = 1 to 1 + Random.State.int g.rng 4 do
    gen_stmt p g (depth + 1)
  done;
  B.bin g.b Instr.Add i (Operand.temp i) (Operand.int 1);
  B.jump g.b l_head;
  B.start_block g.b l_exit

(* A loop with [carried] accumulators that are initialised before the
   header, updated from each other every iteration, and consumed only
   after the exit: each is live around the back edge for the whole loop,
   so under pressure their values must survive iterations in spill slots
   — exactly the loop-carried-spill pattern resolution must get right. *)
and gen_carried_loop p g depth =
  let n_acc = max 1 p.carried in
  let accs = Array.init n_acc (fun _ -> B.temp g.b Rclass.Int) in
  let i = B.temp g.b Rclass.Int in
  let bound = 2 + Random.State.int g.rng 5 in
  let l_head = fresh_label g "ch" in
  let l_body = fresh_label g "cb" in
  let l_exit = fresh_label g "cx" in
  Array.iteri (fun k a -> B.li g.b a ((k * 13) + 3)) accs;
  B.li g.b i 0;
  B.start_block g.b l_head;
  B.branch g.b Instr.Lt (Operand.temp i) (Operand.int bound) ~ifso:l_body
    ~ifnot:l_exit;
  B.start_block g.b l_body;
  Array.iteri
    (fun k a ->
      B.bin g.b
        (pick g [| Instr.Add; Instr.Sub; Instr.Xor |])
        a (Operand.temp a)
        (Operand.temp accs.((k + 1) mod n_acc)))
    accs;
  for _ = 1 to Random.State.int g.rng 3 do
    gen_stmt p g (depth + 1)
  done;
  B.bin g.b Instr.Add i (Operand.temp i) (Operand.int 1);
  B.jump g.b l_head;
  B.start_block g.b l_exit;
  let dst = pick g g.ints in
  Array.iter
    (fun a -> B.bin g.b Instr.Xor dst (Operand.temp dst) (Operand.temp a))
    accs

let gen_func params machine ~name ~callees rng =
  let b = B.create ~name in
  let ints =
    Array.init (max 2 params.n_temps) (fun k ->
        B.temp b Rclass.Int ~name:(Printf.sprintf "i%d" k))
  in
  let floats =
    Array.init
      (int_of_float (float_of_int params.n_temps *. params.float_frac))
      (fun k -> B.temp b Rclass.Float ~name:(Printf.sprintf "f%d" k))
  in
  let g = { rng; machine; b; ints; floats; callees; label_n = 0 } in
  B.start_block b "entry";
  (* Initialise everything before use. *)
  let n_args =
    if name = "main" then 0
    else min 2 (List.length (Machine.int_args machine))
  in
  List.iteri
    (fun k r -> if k < Array.length ints then B.movet b ints.(k) (Operand.reg r))
    (List.init n_args (Machine.arg_reg machine Rclass.Int));
  Array.iteri (fun k t -> if k >= n_args then B.li b t ((k * 7) + 1)) ints;
  Array.iteri (fun k t -> B.lf b t (float_of_int k +. 0.5)) floats;
  for _ = 1 to params.n_stmts do
    gen_stmt params g 0
  done;
  (* Fold the visible state into the return register so any corrupted
     value changes the output. *)
  let h = B.temp b Rclass.Int in
  B.li b h 17;
  Array.iter
    (fun t ->
      B.bin b Instr.Mul h (Operand.temp h) (Operand.int 31);
      B.bin b Instr.Xor h (Operand.temp h) (Operand.temp t))
    ints;
  Array.iter
    (fun t ->
      let ti = B.temp b Rclass.Int in
      B.un b Instr.Ftoi ti (Operand.temp t);
      B.bin b Instr.Mul h (Operand.temp h) (Operand.int 31);
      B.bin b Instr.Xor h (Operand.temp h) (Operand.temp ti))
    floats;
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp h);
  B.ret b;
  B.finish b

let program ?(params = default_params) machine =
  let rng = Random.State.make [| params.seed |] in
  let rec build k callees acc =
    if k = 0 then acc
    else begin
      let name = Printf.sprintf "f%d" k in
      let f = gen_func params machine ~name ~callees rng in
      build (k - 1) (name :: callees) ((name, f) :: acc)
    end
  in
  let leaves = build (params.n_funcs - 1) [] [] in
  let main =
    gen_func params machine ~name:"main" ~callees:(List.map fst leaves) rng
  in
  Program.create ~main:"main" (("main", main) :: leaves)
