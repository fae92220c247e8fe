open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

let coloring machine f = ignore (Lsra.Allocator.(run Graph_coloring) machine f)

let test_straightline () =
  let machine = Machine.small () in
  let b = B.create ~name:"main" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  let z = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 7;
  B.li b y 5;
  B.bin b Instr.Mul z (o_temp x) (o_temp y);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp z);
  B.ret b;
  let f = B.finish b in
  let outcome =
    check_differential ~name:"gc-straightline" machine (prog_of_func f)
      (coloring machine)
  in
  Alcotest.(check string)
    "result" "35"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_pressure () =
  let machine = Machine.small ~int_regs:4 ~float_regs:2 () in
  let f = pressure_func ~width:8 ~iters:10 in
  let outcome =
    check_differential ~name:"gc-pressure" machine (prog_of_func f)
      (coloring machine)
  in
  Alcotest.(check bool)
    "spills happened" true
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts > 0)

let test_no_spill_wide () =
  let machine = Machine.alpha_like in
  let f = pressure_func ~width:8 ~iters:10 in
  let outcome =
    check_differential ~name:"gc-wide" machine (prog_of_func f)
      (coloring machine)
  in
  Alcotest.(check int)
    "no spills" 0
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts)

let test_coalescing_entry_moves () =
  (* Parameter moves from precolored argument registers should coalesce
     away entirely (George/Appel's headline improvement). *)
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  let b = B.create ~name:"main" in
  let a0 = B.temp b Rclass.Int in
  let r = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.movet b a0 (o_reg (Machine.arg_reg machine Rclass.Int 0));
  B.bin b Instr.Add r (o_temp a0) (o_int 1);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp r);
  B.ret b;
  let f = B.finish b in
  let stats = Lsra.Allocator.(run Graph_coloring) machine f in
  Alcotest.(check bool)
    "some move coalesced" true
    (stats.Lsra.Stats.coalesced_moves >= 1);
  (* after peephole the entry move disappears *)
  let removed = Lsra.Peephole.run f in
  Alcotest.(check bool) "peephole removed the move" true (removed >= 1)

let test_call_live_values () =
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  let b = B.create ~name:"main" in
  let u = B.temp b Rclass.Int in
  let v = B.temp b Rclass.Int in
  let r = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b u 11;
  B.li b v 31;
  call_int b machine ~func:"ext_getc" ~args:[] ~ret:(Some r);
  B.bin b Instr.Add r (o_temp r) (o_temp u);
  B.bin b Instr.Add r (o_temp r) (o_temp v);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp r);
  B.ret b;
  let f = B.finish b in
  let outcome =
    check_differential ~name:"gc-call" ~input:"Z" machine (prog_of_func f)
      (coloring machine)
  in
  (* 'Z' = 90; 90+11+31 = 132 *)
  Alcotest.(check string)
    "result" "132"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_loop () =
  let machine = Machine.small ~int_regs:4 () in
  let f = pressure_func ~width:3 ~iters:5 in
  ignore
    (check_differential ~name:"gc-loop" machine (prog_of_func f)
       (coloring machine))

let suite =
  [
    Alcotest.test_case "straight line" `Quick test_straightline;
    Alcotest.test_case "pressure forces spills" `Quick test_pressure;
    Alcotest.test_case "wide machine, no spills" `Quick test_no_spill_wide;
    Alcotest.test_case "entry moves coalesce" `Quick
      test_coalescing_entry_moves;
    Alcotest.test_case "values live across calls" `Quick
      test_call_live_values;
    Alcotest.test_case "loop" `Quick test_loop;
  ]
