open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

(* Tests for the Motion spill-cleanup pass (paper §2.4's alternative). *)

let test_figure2_pair_becomes_move () =
  (* the figure-2 scenario leaves a store immediately followed by a
     reload of the same slot at the top of B3; Motion must fold it *)
  let machine =
    Machine.make ~name:"two-regs" ~int_regs:2 ~float_regs:1
      ~int_caller_saved:0 ~float_caller_saved:0 ~n_int_args:0 ~n_float_args:0
  in
  let b = B.create ~name:"fig2" in
  let t1 = B.temp b Rclass.Int in
  let u1 = B.temp b Rclass.Int in
  let u2 = B.temp b Rclass.Int in
  let u3 = B.temp b Rclass.Int in
  let use t = B.store b (Operand.temp t) (Operand.int 0) 0 in
  B.start_block b "B1";
  B.li b t1 11;
  use t1;
  B.branch b Instr.Lt (Operand.int 0) (Operand.int 1) ~ifso:"B2" ~ifnot:"B3";
  B.start_block b "B2";
  B.li b u1 1;
  B.li b u2 2;
  B.bin b Instr.Add u3 (Operand.temp u1) (Operand.temp u2);
  use u3;
  B.jump b "B4";
  B.start_block b "B3";
  use t1;
  B.jump b "B4";
  B.start_block b "B4";
  use t1;
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp t1);
  B.ret b;
  let f = B.finish b in
  let prog = prog_of_func f in
  let copy = Program.copy prog in
  let f' = Program.find_exn copy "fig2" in
  second_chance machine f';
  let b3_loads_before =
    Array.to_list (Block.body (Cfg.block (Func.cfg f') "B3"))
    |> List.filter (fun i ->
           match Instr.desc i with Instr.Spill_load _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "a reload exists before cleanup" true
    (b3_loads_before >= 1);
  let changed = Lsra.Motion.run f' in
  Alcotest.(check bool) "cleanup did something" true (changed >= 1);
  ignore (Lsra.Peephole.run f');
  let b3_loads_after =
    Array.to_list (Block.body (Cfg.block (Func.cfg f') "B3"))
    |> List.filter (fun i ->
           match Instr.desc i with Instr.Spill_load _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "reload folded away" 0 b3_loads_after;
  (* semantics preserved *)
  match
    ( Lsra_sim.Interp.run machine prog ~input:"",
      Lsra_sim.Interp.run machine copy ~input:"" )
  with
  | Ok a, Ok b ->
    Alcotest.(check string) "same result"
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string b.Lsra_sim.Interp.ret)
  | Error e, _ | _, Error e -> Alcotest.failf "trapped: %s" e

let test_dead_store_removed () =
  (* a slot stored but never read disappears *)
  let machine = Machine.small () in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.insn b
    (Instr.Spill_store { src = Loc.Reg (Machine.int_ret machine); slot = 0 });
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.int 1);
  B.ret b;
  let f = B.finish b in
  ignore (Func.fresh_slot f);
  let removed = Lsra.Motion.run f in
  Alcotest.(check int) "dead store removed" 1 removed

let test_motion_preserves_workloads () =
  (* cleanup + peephole never change observable behaviour, and never
     increase the executed instruction count *)
  let machine = Lsra_sim.Sweep.small_7_7 in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let base = Program.copy case.Lsra_workloads.Specbench.program in
      ignore
        (Lsra.Allocator.pipeline Lsra.Allocator.default_second_chance machine
           base);
      let cleaned = Program.copy case.Lsra_workloads.Specbench.program in
      ignore
        (Lsra.Allocator.pipeline
           ~passes:[ Lsra.Passes.Dce; Lsra.Passes.Motion; Lsra.Passes.Peephole ]
           Lsra.Allocator.default_second_chance machine cleaned);
      match
        ( Lsra_sim.Interp.run machine base
            ~input:case.Lsra_workloads.Specbench.input,
          Lsra_sim.Interp.run machine cleaned
            ~input:case.Lsra_workloads.Specbench.input )
      with
      | Ok a, Ok b ->
        Alcotest.(check string)
          (case.Lsra_workloads.Specbench.name ^ " output")
          a.Lsra_sim.Interp.output b.Lsra_sim.Interp.output;
        Alcotest.(check bool)
          (case.Lsra_workloads.Specbench.name ^ " not slower")
          true
          (b.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
          <= a.Lsra_sim.Interp.counts.Lsra_sim.Interp.total)
      | Error e, _ | _, Error e ->
        Alcotest.failf "%s trapped: %s" case.Lsra_workloads.Specbench.name e)
    (Lsra_workloads.Specbench.all machine ~scale:1)

let suite =
  [
    Alcotest.test_case "figure-2 store/load pair becomes a move" `Quick
      test_figure2_pair_becomes_move;
    Alcotest.test_case "dead slot stores removed" `Quick
      test_dead_store_removed;
    Alcotest.test_case "cleanup preserves all workloads" `Quick
      test_motion_preserves_workloads;
  ]
