(* Figure 1 of the paper: lifetimes and lifetime holes in the linear view
   of a CFG. We rebuild the example's four-block CFG and print the
   computed lifetime segments and holes of T1..T4, which mirror the
   figure's shaded bars.

     dune exec examples/figure1.exe
*)

open Lsra_ir
open Lsra_analysis
open Lsra_target
module B = Builder

(* The paper's CFG:

     B1: T2 <- ..            B2: T3 <- T2      B3: T1 <- ..
         .. <- T1                T4 <- ..          T4 <- ..
         (branch)                .. <- T3          .. <- T4
                                 .. <- T1
     B4: T4 <- ..
         .. <- T4

   Linear order: B1 B2 B3 B4. T1 is (unusually) used in B1 before any
   def — the figure treats it as live-in; we add an initial def in B1 to
   keep the program well defined without changing the holes below it. *)

let () =
  let machine = Machine.small () in
  let b = B.create ~name:"fig1" in
  let t1 = B.temp b Rclass.Int ~name:"T1" in
  let t2 = B.temp b Rclass.Int ~name:"T2" in
  let t3 = B.temp b Rclass.Int ~name:"T3" in
  let t4 = B.temp b Rclass.Int ~name:"T4" in
  let use t =
    (* a use that defines nothing interesting *)
    B.store b (Operand.temp t) (Operand.int 0) 0
  in
  B.start_block b "B1";
  B.li b t1 1;
  B.li b t2 2;
  use t1;
  B.branch b Instr.Lt (Operand.int 0) (Operand.int 1) ~ifso:"B2" ~ifnot:"B3";
  B.start_block b "B2";
  B.movet b t3 (Operand.temp t2);
  B.li b t4 4;
  use t3;
  use t1;
  B.jump b "B4";
  B.start_block b "B3";
  B.li b t1 1;
  B.li b t4 4;
  use t4;
  B.jump b "B4";
  B.start_block b "B4";
  B.li b t4 4;
  use t4;
  B.ret b;
  let f = B.finish b in

  let regidx = Lsra.Regidx.create machine in
  let liveness = Liveness.compute f in
  let loops = Loop.compute (Func.cfg f) in
  let lifetimes = Lsra.Lifetime.compute regidx f liveness loops in

  Format.printf "@[<v>%a@,@]@." Func.pp f;
  Format.printf "Linear positions: 4 per instruction (block order B1 B2 B3 B4)@.@.";
  List.iter
    (fun t ->
      let itv = Lsra.Lifetime.interval lifetimes t in
      Format.printf "%-6s lifetime %a@." (Temp.to_string t) Lsra.Interval.pp
        itv;
      (* the holes: the gaps between consecutive segments *)
      for i = 1 to Lsra.Interval.n_segs itv - 1 do
        Format.printf "       hole     [%d,%d]@."
          (Lsra.Interval.seg_end itv (i - 1) + 1)
          (Lsra.Interval.seg_start itv i - 1)
      done)
    [ t1; t2; t3; t4 ];
  Format.printf
    "@.Note how block boundaries begin and end holes (e.g. T4 is dead@.\
     across the B2/B3 boundary in the linear view, exactly as in the@.\
     paper's Figure 1), and how T3 fits inside T1's hole in B2.@."
