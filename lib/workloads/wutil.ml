open Lsra_ir
open Lsra_target

(* Builder combinators shared by the synthetic benchmarks. *)

module B = Builder

type ctx = { b : B.t; machine : Machine.t; mutable label_n : int }

let create ~name machine = { b = B.create ~name; machine; label_n = 0 }

(* A call or parameter needs an argument register the machine lacks. *)
exception Unfit of string

(* [Machine.arg_reg], checked: raises [Unfit] when the machine's
   convention cannot pass the [i]-th argument of [cls] in a register. *)
let arg_reg ctx cls i =
  let args =
    Machine.(if cls = Rclass.Int then int_args else float_args) ctx.machine
  in
  match List.nth_opt args i with
  | Some r -> r
  | None ->
    raise
      (Unfit
         (Printf.sprintf "a call needs %s argument register %d, %s has %d"
            (Rclass.to_string cls) (i + 1) (Machine.name ctx.machine)
            (List.length args)))

let label ctx prefix =
  ctx.label_n <- ctx.label_n + 1;
  Printf.sprintf "%s_%d" prefix ctx.label_n

let itemp ?name ctx = B.temp ctx.b ?name Rclass.Int
let ftemp ?name ctx = B.temp ctx.b ?name Rclass.Float

let ti t = Operand.temp t
let ci k = Operand.int k
let cf x = Operand.float x

(* Call with integer arguments and an optional integer result, following
   the machine convention. *)
let call_int ctx ~func ~args ~ret =
  let arg_regs = List.mapi (fun i _ -> arg_reg ctx Rclass.Int i) args in
  List.iter2 (fun r a -> B.move ctx.b (Loc.Reg r) a) arg_regs args;
  B.call ctx.b ~func ~args:arg_regs
    ~rets:[ Machine.int_ret ctx.machine ]
    ~clobbers:(Machine.all_caller_saved ctx.machine);
  match ret with
  | Some t -> B.movet ctx.b t (Operand.reg (Machine.int_ret ctx.machine))
  | None -> ()

(* Read the k-th integer parameter into a temp (entry-block moves, the
   §2.5 move-optimisation scenario). *)
let param_int ctx k =
  let t = itemp ctx in
  B.movet ctx.b t (Operand.reg (arg_reg ctx Rclass.Int k));
  t

let return_int ctx o =
  B.move ctx.b (Loc.Reg (Machine.int_ret ctx.machine)) o;
  B.ret ctx.b

(* for i = from; i < below; i++ { body i } *)
let for_ ctx ?(from = 0) ~below body =
  let i = itemp ~name:"i" ctx in
  let head = label ctx "for" in
  let lbody = label ctx "body" in
  let exit = label ctx "done" in
  B.li ctx.b i from;
  B.start_block ctx.b head;
  B.branch ctx.b Instr.Lt (ti i) below ~ifso:lbody ~ifnot:exit;
  B.start_block ctx.b lbody;
  body i;
  B.bin ctx.b Instr.Add i (ti i) (ci 1);
  B.jump ctx.b head;
  B.start_block ctx.b exit;
  i

let if_ ctx op a bb ~then_ ~else_ =
  let lt = label ctx "then" in
  let le = label ctx "else" in
  let lj = label ctx "join" in
  B.branch ctx.b op a bb ~ifso:lt ~ifnot:le;
  B.start_block ctx.b lt;
  then_ ();
  B.jump ctx.b lj;
  B.start_block ctx.b le;
  else_ ();
  B.start_block ctx.b lj

(* Store/load heap words addressed by a base constant plus an index temp. *)
let store_at ctx ~base ~idx v =
  let a = itemp ctx in
  B.bin ctx.b Instr.Add a idx (ci base);
  B.store ctx.b v (ti a) 0

let load_at ctx ~base ~idx dst =
  let a = itemp ctx in
  B.bin ctx.b Instr.Add a idx (ci base);
  B.load ctx.b dst (ti a) 0

let puti ctx v = call_int ctx ~func:"ext_puti" ~args:[ v ] ~ret:None
let getc ctx dst = call_int ctx ~func:"ext_getc" ~args:[] ~ret:(Some dst)
let putc ctx v = call_int ctx ~func:"ext_putc" ~args:[ v ] ~ret:None

let putf ctx v =
  let r0 = arg_reg ctx Rclass.Float 0 in
  B.move ctx.b (Loc.Reg r0) v;
  B.call ctx.b ~func:"ext_putf" ~args:[ r0 ]
    ~rets:[ Machine.int_ret ctx.machine ]
    ~clobbers:(Machine.all_caller_saved ctx.machine)

let finish ctx = B.finish ctx.b
