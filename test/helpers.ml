open Lsra_ir
open Lsra_target

module B = Builder

let o_int = Operand.int
let o_temp = Operand.temp
let o_reg = Operand.reg

(* A call helper following the machine convention: move integer argument
   temps into argument registers, call, and receive the integer result in
   a temp. *)
let call_int b machine ~func ~args ~ret =
  let n = List.length args in
  let arg_regs = List.init n (Machine.arg_reg machine Rclass.Int) in
  List.iteri
    (fun i a -> B.move b (Loc.Reg (Machine.arg_reg machine Rclass.Int i)) a)
    args;
  let clobbers = Machine.all_caller_saved machine in
  B.call b ~func ~args:arg_regs
    ~rets:[ Machine.int_ret machine ]
    ~clobbers;
  match ret with
  | Some t -> B.movet b t (Operand.reg (Machine.int_ret machine))
  | None -> ()

(* Compare the reference execution of [prog] against the execution of its
   copy allocated by [alloc]; both observable output and the trap/ok
   status must agree. Returns the allocated run's outcome for further
   inspection. *)
let check_differential ?(input = "") ?(verify = true) ~name machine prog
    alloc =
  let reference = Lsra_sim.Interp.run machine prog ~input in
  let copy = Program.copy prog in
  List.iter
    (fun (n, f) ->
      let original = Func.copy f in
      alloc f;
      if verify then
        match Lsra.Verify.check machine ~original ~allocated:f with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s: verifier rejects %s: at '%s': %s" name n
            e.Lsra.Verify.where e.Lsra.Verify.what)
    (Program.funcs copy);
  (match
     List.concat_map (fun (_, f) -> List.map Temp.to_string (Func.temps f))
       (Program.funcs copy)
   with
  | [] -> ()
  | ts ->
    Alcotest.failf "%s: temporaries survive allocation: %s" name
      (String.concat ", " ts));
  let allocated = Lsra_sim.Interp.run machine copy ~input in
  match reference, allocated with
  | Ok r, Ok a ->
    Alcotest.(check string) (name ^ ": output") r.Lsra_sim.Interp.output
      a.Lsra_sim.Interp.output;
    Alcotest.(check string) (name ^ ": return value")
      (Lsra_sim.Value.to_string r.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret);
    a
  | Error e, _ -> Alcotest.failf "%s: reference run trapped: %s" name e
  | Ok _, Error e -> Alcotest.failf "%s: allocated run trapped: %s" name e

let second_chance ?(opts = Lsra.Binpack.default_options) machine f =
  ignore (Lsra.Allocator.run (Lsra.Allocator.Second_chance opts) machine f)

(* A small diamond-with-loop function exercising spills: sums several
   linear combinations over a counted loop. [width] controls register
   pressure. *)
let pressure_func ~width ~iters =
  let b = B.create ~name:"main" in
  let acc = B.temp b Rclass.Int ~name:"acc" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let xs = List.init width (fun k -> B.temp b Rclass.Int ~name:(Printf.sprintf "x%d" k)) in
  B.start_block b "entry";
  B.li b acc 0;
  B.li b i 0;
  List.iteri (fun k x -> B.li b x (k + 1)) xs;
  B.start_block b "loop";
  (* Use every x, keeping them all live across the loop. *)
  List.iter (fun x -> B.bin b Instr.Add acc (o_temp acc) (o_temp x)) xs;
  List.iter
    (fun x -> B.bin b Instr.Add x (o_temp x) (o_int 1))
    xs;
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.branch b Instr.Lt (o_temp i) (o_int iters) ~ifso:"loop" ~ifnot:"exit";
  B.start_block b "exit";
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (o_temp acc);
  B.ret b;
  B.finish b

let prog_of_func f = Program.create ~main:(Func.name f) [ (Func.name f, f) ]
