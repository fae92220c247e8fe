open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

let test_straightline_no_spill () =
  let b = B.create ~name:"main" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  let z = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 7;
  B.li b y 5;
  B.bin b Instr.Add z (o_temp x) (o_temp y);
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (o_temp z);
  B.ret b;
  let f = B.finish b in
  let machine = Machine.small () in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"straightline" machine prog
      (second_chance machine)
  in
  Alcotest.(check int)
    "no spill code executed" 0
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts);
  Alcotest.(check string)
    "result" "12"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_pressure_spills () =
  let machine = Machine.small ~int_regs:4 ~float_regs:2 () in
  let f = pressure_func ~width:8 ~iters:10 in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"pressure" machine prog (second_chance machine)
  in
  Alcotest.(check bool)
    "spill code executed" true
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts > 0)

let test_pressure_wide_machine () =
  let machine = Machine.alpha_like in
  let f = pressure_func ~width:8 ~iters:10 in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"pressure-wide" machine prog
      (second_chance machine)
  in
  Alcotest.(check int)
    "no spill code on a wide machine" 0
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts)

let test_branch_diamond () =
  let machine = Machine.small () in
  let b = B.create ~name:"main" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 3;
  B.li b y 10;
  B.branch b Instr.Lt (o_temp x) (o_int 5) ~ifso:"then" ~ifnot:"else";
  B.start_block b "then";
  B.bin b Instr.Add y (o_temp y) (o_temp x);
  B.jump b "join";
  B.start_block b "else";
  B.bin b Instr.Sub y (o_temp y) (o_temp x);
  B.jump b "join";
  B.start_block b "join";
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp y);
  B.ret b;
  let f = B.finish b in
  let outcome =
    check_differential ~name:"diamond" machine (prog_of_func f)
      (second_chance machine)
  in
  Alcotest.(check string)
    "result" "13"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_call_preserves_values () =
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  (* callee: returns arg + 1 *)
  let cb = B.create ~name:"inc" in
  let a = B.temp cb Rclass.Int in
  B.start_block cb "entry";
  B.movet cb a (o_reg (Machine.arg_reg machine Rclass.Int 0));
  B.bin cb Instr.Add a (o_temp a) (o_int 1);
  B.move cb (Loc.Reg (Machine.int_ret machine)) (o_temp a);
  B.ret cb;
  let inc = B.finish cb in
  (* main: values live across the call must survive *)
  let mb = B.create ~name:"main" in
  let u = B.temp mb Rclass.Int in
  let v = B.temp mb Rclass.Int in
  let w = B.temp mb Rclass.Int in
  let r = B.temp mb Rclass.Int in
  B.start_block mb "entry";
  B.li mb u 100;
  B.li mb v 20;
  B.li mb w 3;
  call_int mb machine ~func:"inc" ~args:[ o_temp u ] ~ret:(Some r);
  B.bin mb Instr.Add r (o_temp r) (o_temp v);
  B.bin mb Instr.Add r (o_temp r) (o_temp w);
  B.move mb (Loc.Reg (Machine.int_ret machine)) (o_temp r);
  B.ret mb;
  let main = B.finish mb in
  let prog = Program.create ~main:"main" [ ("main", main); ("inc", inc) ] in
  let outcome =
    check_differential ~name:"call" machine prog (second_chance machine)
  in
  Alcotest.(check string)
    "result" "124"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_loop_with_call () =
  (* The wc-shaped scenario: temps live across a call inside a loop. *)
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:4 () in
  let b = B.create ~name:"main" in
  let sum = B.temp b Rclass.Int in
  let i = B.temp b Rclass.Int in
  let c = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b sum 0;
  B.li b i 0;
  B.start_block b "loop";
  call_int b machine ~func:"ext_getc" ~args:[] ~ret:(Some c);
  B.branch b Instr.Lt (o_temp c) (o_int 0) ~ifso:"exit" ~ifnot:"body";
  B.start_block b "body";
  B.bin b Instr.Add sum (o_temp sum) (o_temp c);
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.jump b "loop";
  B.start_block b "exit";
  B.bin b Instr.Add sum (o_temp sum) (o_temp i);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp sum);
  B.ret b;
  let f = B.finish b in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"loop-call" ~input:"AB" machine prog
      (second_chance machine)
  in
  (* 65 + 66 + 2 *)
  Alcotest.(check string)
    "result" "133"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let all_option_combos () =
  List.concat_map
    (fun esc ->
      List.concat_map
        (fun mo ->
          List.map
            (fun c ->
              {
                Lsra.Binpack.early_second_chance = esc;
                move_opt = mo;
                consistency = c;
              })
            [ Lsra.Binpack.Iterative; Lsra.Binpack.Conservative ])
        [ true; false ])
    [ true; false ]

let test_option_combinations () =
  let machine = Machine.small ~int_regs:4 ~int_caller_saved:2 () in
  let f = pressure_func ~width:7 ~iters:6 in
  let prog = prog_of_func f in
  List.iter
    (fun opts ->
      ignore
        (check_differential ~name:"options" machine prog
           (second_chance ~opts machine)))
    (all_option_combos ())

(* The scan's block loop runs under [Stats.timed], so its time and minor
   words are recorded like every other pass's, by [Binpack.scan] and
   through [Allocator.pipeline]. *)
let test_scan_allocation_recorded () =
  let m = Machine.small () in
  let scan_words s =
    s.Lsra.Stats.pass_minor_words.(Lsra.Stats.pass_index Lsra.Stats.Scan)
  in
  let scanned = Lsra.Binpack.scan m (pressure_func ~width:6 ~iters:3) in
  Alcotest.(check bool) "scan minor words" true
    (scan_words scanned.Lsra.Binpack.stats > 0.);
  Alcotest.(check bool) "scan time" true
    (scanned.Lsra.Binpack.stats.Lsra.Stats.time_scan > 0.);
  let stats =
    Lsra.Allocator.pipeline Lsra.Allocator.default_second_chance m
      (prog_of_func (pressure_func ~width:6 ~iters:3))
  in
  Alcotest.(check bool) "pipeline scan minor words" true (scan_words stats > 0.)

let suite =
  [
    Alcotest.test_case "straight-line, no spills" `Quick
      test_straightline_no_spill;
    Alcotest.test_case "pressure forces spills" `Quick test_pressure_spills;
    Alcotest.test_case "wide machine avoids spills" `Quick
      test_pressure_wide_machine;
    Alcotest.test_case "branch diamond" `Quick test_branch_diamond;
    Alcotest.test_case "values live across calls" `Quick
      test_call_preserves_values;
    Alcotest.test_case "loop around a call (wc shape)" `Quick
      test_loop_with_call;
    Alcotest.test_case "all option combinations" `Quick
      test_option_combinations;
    Alcotest.test_case "scan allocation is recorded" `Quick
      test_scan_allocation_recorded;
  ]
