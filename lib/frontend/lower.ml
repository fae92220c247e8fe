open Lsra_ir
open Lsra_target

(* Lowering Minilang AST to the register-allocation IR.

   Static rules: a variable's class (int or float) is fixed by its
   initialiser; arrays hold integers; conditions, array indices, call
   arguments and results are integers; functions return integers (the
   final value of an implicit `return 0` if control falls off the end). *)

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type ctx = {
  b : Builder.t;
  machine : Machine.t;
  env : (string, Temp.t) Hashtbl.t;
  known_fns : (string, int) Hashtbl.t; (* name -> arity *)
  mutable label_n : int;
}

let fresh_label ctx prefix =
  ctx.label_n <- ctx.label_n + 1;
  Printf.sprintf "%s_%d" prefix ctx.label_n

let cls_of_temp t = Temp.cls t

(* [Machine.arg_reg], checked: a call the machine's convention cannot
   pass in registers is a lowering error, not a crash. *)
let arg_reg ctx cls i =
  let args =
    Machine.(if cls = Rclass.Int then int_args else float_args) ctx.machine
  in
  match List.nth_opt args i with
  | Some r -> r
  | None ->
    err "a call needs %s argument register %d, %s has %d"
      (Rclass.to_string cls) (i + 1) (Machine.name ctx.machine)
      (List.length args)

(* Lower an expression; returns a temp holding its value. *)
let rec lower_expr ctx (e : Ast.expr) : Temp.t =
  match e with
  | Ast.Int k ->
    let t = Builder.temp ctx.b Rclass.Int in
    Builder.li ctx.b t k;
    t
  | Ast.Float f ->
    let t = Builder.temp ctx.b Rclass.Float in
    Builder.lf ctx.b t f;
    t
  | Ast.Var name -> (
    match Hashtbl.find_opt ctx.env name with
    | Some t -> t
    | None -> err "undefined variable %s" name)
  | Ast.Un (Ast.Neg, e) -> (
    let v = lower_expr ctx e in
    match cls_of_temp v with
    | Rclass.Int ->
      let t = Builder.temp ctx.b Rclass.Int in
      Builder.un ctx.b Instr.Neg t (Operand.temp v);
      t
    | Rclass.Float ->
      let t = Builder.temp ctx.b Rclass.Float in
      Builder.un ctx.b Instr.Fneg t (Operand.temp v);
      t)
  | Ast.Un (Ast.Not, e) ->
    let v = int_expr ctx e "operand of !" in
    let t = Builder.temp ctx.b Rclass.Int in
    Builder.cmp ctx.b Instr.Eq t (Operand.temp v) (Operand.int 0);
    t
  | Ast.Bin (op, a, b) -> lower_binop ctx op a b
  | Ast.Getc ->
    let t = Builder.temp ctx.b Rclass.Int in
    call_builtin ctx "ext_getc" [] (Some t);
    t
  | Ast.Alloc e ->
    let n = int_expr ctx e "alloc size" in
    let t = Builder.temp ctx.b Rclass.Int in
    call_builtin ctx "ext_alloc" [ n ] (Some t);
    t
  | Ast.Itof e ->
    let v = int_expr ctx e "itof operand" in
    let t = Builder.temp ctx.b Rclass.Float in
    Builder.un ctx.b Instr.Itof t (Operand.temp v);
    t
  | Ast.Ftoi e -> (
    let v = lower_expr ctx e in
    match cls_of_temp v with
    | Rclass.Float ->
      let t = Builder.temp ctx.b Rclass.Int in
      Builder.un ctx.b Instr.Ftoi t (Operand.temp v);
      t
    | Rclass.Int -> err "ftoi expects a float")
  | Ast.Index (base, idx) ->
    let bt = int_expr ctx base "array base" in
    let it = int_expr ctx idx "array index" in
    let addr = Builder.temp ctx.b Rclass.Int in
    Builder.bin ctx.b Instr.Add addr (Operand.temp bt) (Operand.temp it);
    let t = Builder.temp ctx.b Rclass.Int in
    Builder.load ctx.b t (Operand.temp addr) 0;
    t
  | Ast.Call (name, args) ->
    (match Hashtbl.find_opt ctx.known_fns name with
    | Some arity when arity <> List.length args ->
      err "%s expects %d arguments, got %d" name arity (List.length args)
    | Some _ -> ()
    | None -> err "call to undefined function %s" name);
    let n_regs = List.length (Machine.int_args ctx.machine) in
    if List.length args > n_regs then
      err "%s: more than %d arguments are not supported" name n_regs;
    let vals = List.map (fun a -> int_expr ctx a "call argument") args in
    let t = Builder.temp ctx.b Rclass.Int in
    call_builtin ctx name vals (Some t);
    t

and int_expr ctx e what =
  let v = lower_expr ctx e in
  match cls_of_temp v with
  | Rclass.Int -> v
  | Rclass.Float -> err "%s must be an integer" what

and call_builtin ctx name args ret =
  let arg_regs = List.mapi (fun i _ -> arg_reg ctx Rclass.Int i) args in
  List.iter2
    (fun r a -> Builder.move ctx.b (Loc.Reg r) (Operand.temp a))
    arg_regs args;
  Builder.call ctx.b ~func:name ~args:arg_regs
    ~rets:[ Machine.int_ret ctx.machine ]
    ~clobbers:(Machine.all_caller_saved ctx.machine);
  match ret with
  | Some t -> Builder.movet ctx.b t (Operand.reg (Machine.int_ret ctx.machine))
  | None -> ()

and lower_binop ctx op a b =
  let va = lower_expr ctx a in
  let vb = lower_expr ctx b in
  let both_int =
    cls_of_temp va = Rclass.Int && cls_of_temp vb = Rclass.Int
  in
  let both_float =
    cls_of_temp va = Rclass.Float && cls_of_temp vb = Rclass.Float
  in
  if not (both_int || both_float) then
    err "operands of %s mix int and float" (Ast.binop_to_string op);
  let itemp () = Builder.temp ctx.b Rclass.Int in
  let ftemp () = Builder.temp ctx.b Rclass.Float in
  let int_bin iop =
    if not both_int then
      err "%s is integer-only" (Ast.binop_to_string op);
    let t = itemp () in
    Builder.bin ctx.b iop t (Operand.temp va) (Operand.temp vb);
    t
  in
  let arith iop fop =
    if both_int then begin
      let t = itemp () in
      Builder.bin ctx.b iop t (Operand.temp va) (Operand.temp vb);
      t
    end
    else begin
      let t = ftemp () in
      Builder.bin ctx.b fop t (Operand.temp va) (Operand.temp vb);
      t
    end
  in
  let compare icmp fcmp ~swap =
    let t = itemp () in
    if both_int then
      Builder.cmp ctx.b icmp t (Operand.temp va) (Operand.temp vb)
    else begin
      let x, y = if swap then (vb, va) else (va, vb) in
      Builder.cmp ctx.b fcmp t (Operand.temp x) (Operand.temp y)
    end;
    t
  in
  match op with
  | Ast.Add -> arith Instr.Add Instr.Fadd
  | Ast.Sub -> arith Instr.Sub Instr.Fsub
  | Ast.Mul -> arith Instr.Mul Instr.Fmul
  | Ast.Div -> arith Instr.Div Instr.Fdiv
  | Ast.Mod -> int_bin Instr.Rem
  | Ast.Band -> int_bin Instr.And
  | Ast.Bor -> int_bin Instr.Or
  | Ast.Bxor -> int_bin Instr.Xor
  | Ast.Shl -> int_bin Instr.Sll
  | Ast.Shr -> int_bin Instr.Srl
  | Ast.Lt -> compare Instr.Lt Instr.Flt ~swap:false
  | Ast.Le -> compare Instr.Le Instr.Fle ~swap:false
  | Ast.Gt -> compare Instr.Gt Instr.Flt ~swap:true
  | Ast.Ge -> compare Instr.Ge Instr.Fle ~swap:true
  | Ast.Eq -> compare Instr.Eq Instr.Feq ~swap:false
  | Ast.Ne -> compare Instr.Ne Instr.Fne ~swap:false
  | Ast.And ->
    if not both_int then err "&& is integer-only";
    let na = itemp () and nb = itemp () and t = itemp () in
    Builder.cmp ctx.b Instr.Ne na (Operand.temp va) (Operand.int 0);
    Builder.cmp ctx.b Instr.Ne nb (Operand.temp vb) (Operand.int 0);
    Builder.bin ctx.b Instr.And t (Operand.temp na) (Operand.temp nb);
    t
  | Ast.Or ->
    if not both_int then err "|| is integer-only";
    let na = itemp () and nb = itemp () and t = itemp () in
    Builder.cmp ctx.b Instr.Ne na (Operand.temp va) (Operand.int 0);
    Builder.cmp ctx.b Instr.Ne nb (Operand.temp vb) (Operand.int 0);
    Builder.bin ctx.b Instr.Or t (Operand.temp na) (Operand.temp nb);
    t

(* Destination-driven lowering: compute [e] directly into [dst] when the
   expression's natural lowering targets a fresh temp of the same class —
   this is what keeps a frontend from drowning the allocator in copies.
   Falls back to lowering into a fresh temp plus one move. *)
let lower_expr_into ctx dst (e : Ast.expr) =
  let dcls = cls_of_temp dst in
  let fallback () =
    let v = lower_expr ctx e in
    if cls_of_temp v <> dcls then
      err "assignment to %s changes its type"
        (match Temp.name dst with Some n -> n | None -> Temp.to_string dst);
    Builder.movet ctx.b dst (Operand.temp v)
  in
  match e, dcls with
  | Ast.Int k, Rclass.Int -> Builder.li ctx.b dst k
  | Ast.Float f, Rclass.Float -> Builder.lf ctx.b dst f
  | Ast.Bin (op, a, b), _ -> (
    (* re-run the binop lowering, but into [dst] for the plain arithmetic
       cases; comparisons and logic still produce 0/1 into ints *)
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
    | Ast.Bxor | Ast.Shl | Ast.Shr -> (
      let va = lower_expr ctx a in
      let vb = lower_expr ctx b in
      let both_int =
        cls_of_temp va = Rclass.Int && cls_of_temp vb = Rclass.Int
      in
      let both_float =
        cls_of_temp va = Rclass.Float && cls_of_temp vb = Rclass.Float
      in
      if not (both_int || both_float) then
        err "operands of %s mix int and float" (Ast.binop_to_string op);
      let iop_of = function
        | Ast.Add -> Some Instr.Add
        | Ast.Sub -> Some Instr.Sub
        | Ast.Mul -> Some Instr.Mul
        | Ast.Div -> Some Instr.Div
        | Ast.Mod -> Some Instr.Rem
        | Ast.Band -> Some Instr.And
        | Ast.Bor -> Some Instr.Or
        | Ast.Bxor -> Some Instr.Xor
        | Ast.Shl -> Some Instr.Sll
        | Ast.Shr -> Some Instr.Srl
        | _ -> None
      in
      let fop_of = function
        | Ast.Add -> Some Instr.Fadd
        | Ast.Sub -> Some Instr.Fsub
        | Ast.Mul -> Some Instr.Fmul
        | Ast.Div -> Some Instr.Fdiv
        | _ -> None
      in
      match dcls, both_int with
      | Rclass.Int, true -> (
        match iop_of op with
        | Some iop ->
          Builder.bin ctx.b iop dst (Operand.temp va) (Operand.temp vb)
        | None -> err "%s is not integer-valued" (Ast.binop_to_string op))
      | Rclass.Float, false -> (
        match fop_of op with
        | Some fop ->
          Builder.bin ctx.b fop dst (Operand.temp va) (Operand.temp vb)
        | None -> err "%s is integer-only" (Ast.binop_to_string op))
      | Rclass.Int, false | Rclass.Float, true ->
        err "assignment changes the variable's type")
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or
      ->
      fallback ())
  | (Ast.Call _ | Ast.Getc | Ast.Alloc _ | Ast.Index _ | Ast.Var _
    | Ast.Un _ | Ast.Itof _ | Ast.Ftoi _ | Ast.Int _ | Ast.Float _), _ ->
    fallback ()

(* Lower a statement list; returns true when control cannot fall out of
   the end (every path returned). *)
let rec lower_stmts ctx stmts =
  List.fold_left
    (fun terminated s ->
      if terminated then
        err "unreachable statement after return";
      lower_stmt ctx s)
    false stmts

and lower_stmt ctx (s : Ast.stmt) : bool =
  match s with
  | Ast.Decl (name, e) ->
    if Hashtbl.mem ctx.env name then err "variable %s redeclared" name;
    let v = lower_expr ctx e in
    (* copy into a dedicated temp so later assignments are in place *)
    let t = Builder.temp ctx.b (cls_of_temp v) ~name in
    Builder.movet ctx.b t (Operand.temp v);
    Hashtbl.replace ctx.env name t;
    false
  | Ast.Assign (name, e) -> (
    match Hashtbl.find_opt ctx.env name with
    | None -> err "assignment to undeclared variable %s" name
    | Some t ->
      lower_expr_into ctx t e;
      false)
  | Ast.Store (base, idx, e) ->
    let bt = int_expr ctx base "array base" in
    let it = int_expr ctx idx "array index" in
    let v = int_expr ctx e "stored value" in
    let addr = Builder.temp ctx.b Rclass.Int in
    Builder.bin ctx.b Instr.Add addr (Operand.temp bt) (Operand.temp it);
    Builder.store ctx.b (Operand.temp v) (Operand.temp addr) 0;
    false
  | Ast.Print e -> (
    let v = lower_expr ctx e in
    match cls_of_temp v with
    | Rclass.Int ->
      call_builtin ctx "ext_puti" [ v ] None;
      false
    | Rclass.Float ->
      let r0 = arg_reg ctx Rclass.Float 0 in
      Builder.move ctx.b (Loc.Reg r0) (Operand.temp v);
      Builder.call ctx.b ~func:"ext_putf" ~args:[ r0 ]
        ~rets:[ Machine.int_ret ctx.machine ]
        ~clobbers:(Machine.all_caller_saved ctx.machine);
      false)
  | Ast.Putc e ->
    let v = int_expr ctx e "putc argument" in
    call_builtin ctx "ext_putc" [ v ] None;
    false
  | Ast.Expr e ->
    ignore (lower_expr ctx e);
    false
  | Ast.Return e ->
    let v = int_expr ctx e "return value" in
    Builder.move ctx.b (Loc.Reg (Machine.int_ret ctx.machine)) (Operand.temp v);
    Builder.ret ctx.b;
    true
  | Ast.If (c, then_, else_) ->
    let cv = int_expr ctx c "condition" in
    let lt = fresh_label ctx "then" in
    let le = fresh_label ctx "else" in
    let lj = fresh_label ctx "join" in
    Builder.branch ctx.b Instr.Ne (Operand.temp cv) (Operand.int 0) ~ifso:lt
      ~ifnot:le;
    Builder.start_block ctx.b lt;
    let t_term = lower_stmts ctx then_ in
    if not t_term then Builder.jump ctx.b lj;
    Builder.start_block ctx.b le;
    let e_term = lower_stmts ctx else_ in
    if not e_term then Builder.jump ctx.b lj;
    if t_term && e_term then true
    else begin
      Builder.start_block ctx.b lj;
      false
    end
  | Ast.While (c, body) ->
    let lh = fresh_label ctx "head" in
    let lb = fresh_label ctx "body" in
    let lx = fresh_label ctx "exit" in
    Builder.jump ctx.b lh;
    Builder.start_block ctx.b lh;
    let cv = int_expr ctx c "condition" in
    Builder.branch ctx.b Instr.Ne (Operand.temp cv) (Operand.int 0) ~ifso:lb
      ~ifnot:lx;
    Builder.start_block ctx.b lb;
    let b_term = lower_stmts ctx body in
    if not b_term then Builder.jump ctx.b lh;
    Builder.start_block ctx.b lx;
    false

let lower_fn machine known_fns (fn : Ast.func) =
  let b = Builder.create ~name:fn.Ast.fname in
  let ctx = { b; machine; env = Hashtbl.create 16; known_fns; label_n = 0 } in
  Builder.start_block b "entry";
  let n_regs = List.length (Machine.int_args machine) in
  if List.length fn.Ast.params > n_regs then
    err "%s: more than %d parameters are not supported" fn.Ast.fname n_regs;
  List.iteri
    (fun i p ->
      if Hashtbl.mem ctx.env p then err "duplicate parameter %s" p;
      let t = Builder.temp b Rclass.Int ~name:p in
      Builder.movet b t (Operand.reg (Machine.arg_reg machine Rclass.Int i));
      Hashtbl.replace ctx.env p t)
    fn.Ast.params;
  let terminated = lower_stmts ctx fn.Ast.body in
  if not terminated then begin
    Builder.move b (Loc.Reg (Machine.int_ret machine)) (Operand.int 0);
    Builder.ret b
  end;
  Builder.finish b

let lower ?(heap_words = 65536) machine (prog : Ast.program) =
  (match prog with
  | [] -> err "empty program"
  | _ -> ());
  let known_fns = Hashtbl.create 8 in
  List.iter
    (fun (fn : Ast.func) ->
      if Hashtbl.mem known_fns fn.Ast.fname then
        err "function %s defined twice" fn.Ast.fname;
      Hashtbl.replace known_fns fn.Ast.fname (List.length fn.Ast.params))
    prog;
  if not (Hashtbl.mem known_fns "main") then err "no main function";
  let funcs =
    List.map (fun fn -> (fn.Ast.fname, lower_fn machine known_fns fn)) prog
  in
  Program.create ~heap_words ~main:"main" funcs
