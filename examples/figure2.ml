(* Figure 2 of the paper: a second-chance lifetime split and the
   resolution code it requires.

   Two integer registers. T1 is defined and used in B1, evicted in B2
   (with the figure's in-block spill store i5) by competing lifetimes,
   reloaded in B3 into a different register — the second chance (i6) —
   and used again in B4. Resolution must then insert a store at the top
   of B3 (the figure's i7: the B1→B3 edge arrives with T1 in a register
   but B3 assumed memory) and a load at the bottom of B2 (the figure's
   i8: the B2→B4 edge arrives with T1 in memory but B4 assumes the
   second-chance register).

     dune exec examples/figure2.exe
*)

open Lsra_ir
open Lsra_target
module B = Builder

let () =
  let machine =
    Machine.make ~name:"two-regs" ~int_regs:2 ~float_regs:1
      ~int_caller_saved:0 ~float_caller_saved:0 ~n_int_args:0 ~n_float_args:0
  in
  let b = B.create ~name:"fig2" in
  let t1 = B.temp b Rclass.Int ~name:"T1" in
  let u1 = B.temp b Rclass.Int ~name:"U1" in
  let u2 = B.temp b Rclass.Int ~name:"U2" in
  let u3 = B.temp b Rclass.Int ~name:"U3" in
  let use t = B.store b (Operand.temp t) (Operand.int 0) 0 in
  B.start_block b "B1";
  B.li b t1 11 (* i1: T1 := .. *);
  use t1 (* i2: .. := T1 *);
  B.branch b Instr.Lt (Operand.int 0) (Operand.int 1) ~ifso:"B2" ~ifnot:"B3";
  B.start_block b "B2";
  (* two simultaneous lifetimes exhaust both registers: T1 is spilled *)
  B.li b u1 1;
  B.li b u2 2;
  B.bin b Instr.Add u3 (Operand.temp u1) (Operand.temp u2);
  use u3;
  B.jump b "B4";
  B.start_block b "B3";
  use t1 (* i3: T1's second chance *);
  B.jump b "B4";
  B.start_block b "B4";
  use t1 (* i4 *);
  B.ret b;
  let f = B.finish b in
  let prog = Program.create ~main:"fig2" [ ("fig2", f) ] in

  Format.printf "@[<v>Before allocation:@,%a@,@]@." Func.pp f;

  let copy = Program.copy prog in
  let f' = Program.find_exn copy "fig2" in
  let original = Func.copy f' in
  let stats =
    Lsra.Allocator.run Lsra.Allocator.default_second_chance machine f'
  in
  Lsra.Verify.run machine ~original ~allocated:f';
  Format.printf "@[<v>After second-chance binpacking on two registers:@,%a@,@]@."
    Func.pp f';
  Format.printf "%a@.@." Lsra.Stats.pp stats;
  Format.printf
    "Reading the output against the paper's figure:@.\
    \  - the eviction store of T1 inside B2 is i5;@.\
    \  - the reload of T1 in B3 (a different register!) is i6, the@.\
    \    second chance;@.\
    \  - the resolution store at the top of B3 is i7 (edge B1->B3);@.\
    \  - the resolution load at the bottom of B2 is i8 (edge B2->B4).@.";
  match Lsra_sim.Interp.run machine copy ~input:"" with
  | Ok _ -> Format.printf "The allocated program executes correctly.@."
  | Error e -> failwith e
