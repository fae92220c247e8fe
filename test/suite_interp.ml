open Lsra_ir
open Lsra_target
module B = Builder

(* Semantics tests for the simulator. *)

let machine = Machine.small ~int_regs:8 ~float_regs:8 ()

let run_main build ~input =
  let b = B.create ~name:"main" in
  B.start_block b "entry";
  build b;
  let f = B.finish b in
  let prog = Program.create ~main:"main" [ ("main", f) ] in
  Lsra_sim.Interp.run machine prog ~input

let ret_of = function
  | Ok o -> Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret
  | Error e -> "trap: " ^ e

let returns build expected =
  let r =
    run_main ~input:""
      (fun b ->
        let t = build b in
        B.move b (Loc.Reg (Machine.int_ret machine)) t;
        B.ret b)
  in
  Alcotest.(check string) ("returns " ^ expected) expected (ret_of r)

let test_int_arithmetic () =
  returns
    (fun b ->
      let t = B.temp b Rclass.Int in
      B.li b t 7;
      B.bin b Instr.Mul t (Operand.temp t) (Operand.int 6);
      B.bin b Instr.Sub t (Operand.temp t) (Operand.int 2);
      B.bin b Instr.Div t (Operand.temp t) (Operand.int 5);
      B.bin b Instr.Rem t (Operand.temp t) (Operand.int 3);
      Operand.temp t)
    "2" (* ((7*6-2)/5) mod 3 = 8 mod 3 = 2 *)

let test_bitwise_and_shifts () =
  returns
    (fun b ->
      let t = B.temp b Rclass.Int in
      B.li b t 0b1100;
      B.bin b Instr.And t (Operand.temp t) (Operand.int 0b1010);
      B.bin b Instr.Or t (Operand.temp t) (Operand.int 0b0001);
      B.bin b Instr.Xor t (Operand.temp t) (Operand.int 0b1111);
      B.bin b Instr.Sll t (Operand.temp t) (Operand.int 2);
      B.bin b Instr.Srl t (Operand.temp t) (Operand.int 1);
      Operand.temp t)
    "12" (* ((((12&10)|1)^15) << 2) >> 1 = (6 << 2) >> 1 = 12 *)

let test_sra_negative () =
  returns
    (fun b ->
      let t = B.temp b Rclass.Int in
      B.li b t (-16);
      B.bin b Instr.Sra t (Operand.temp t) (Operand.int 2);
      Operand.temp t)
    "-4"

let test_unops_and_conversions () =
  returns
    (fun b ->
      let i = B.temp b Rclass.Int in
      let f = B.temp b Rclass.Float in
      B.li b i 3;
      B.un b Instr.Itof f (Operand.temp i);
      B.bin b Instr.Fmul f (Operand.temp f) (Operand.float 2.5);
      B.un b Instr.Ftoi i (Operand.temp f);
      B.un b Instr.Neg i (Operand.temp i);
      Operand.temp i)
    "-7"

let test_cmp () =
  returns
    (fun b ->
      let t = B.temp b Rclass.Int in
      let c1 = B.temp b Rclass.Int in
      let c2 = B.temp b Rclass.Int in
      B.li b t 5;
      B.cmp b Instr.Lt c1 (Operand.temp t) (Operand.int 9);
      B.cmp b Instr.Ge c2 (Operand.temp t) (Operand.int 9);
      B.bin b Instr.Sll c1 (Operand.temp c1) (Operand.int 1);
      B.bin b Instr.Add c1 (Operand.temp c1) (Operand.temp c2);
      Operand.temp c1)
    "2" (* (5<9)=1 shifted + (5>=9)=0 *)

let test_div_by_zero_traps () =
  let r =
    run_main ~input:"" (fun b ->
        let t = B.temp b Rclass.Int in
        B.li b t 1;
        B.bin b Instr.Div t (Operand.temp t) (Operand.int 0);
        B.ret b)
  in
  Alcotest.(check bool) "div by zero traps" true
    (match r with Error _ -> true | Ok _ -> false)

let test_oob_traps () =
  let r =
    run_main ~input:"" (fun b ->
        let t = B.temp b Rclass.Int in
        B.load b t (Operand.int 999_999_999) 0;
        B.ret b)
  in
  Alcotest.(check bool) "out-of-bounds load traps" true
    (match r with Error _ -> true | Ok _ -> false)

let test_undef_read_traps () =
  let r =
    run_main ~input:"" (fun b ->
        let t = B.temp b Rclass.Int in
        let u = B.temp b Rclass.Int in
        B.bin b Instr.Add t (Operand.temp u) (Operand.int 1);
        B.ret b)
  in
  Alcotest.(check bool) "undefined read traps" true
    (match r with Error _ -> true | Ok _ -> false)

let test_fuel () =
  let b = B.create ~name:"main" in
  B.start_block b "entry";
  B.jump b "entry2";
  B.start_block b "entry2";
  B.jump b "entry3";
  B.start_block b "entry3";
  B.jump b "entry2";
  let f = B.finish b in
  let prog = Program.create ~main:"main" [ ("main", f) ] in
  match Lsra_sim.Interp.run ~fuel:1000 machine prog ~input:"" with
  | Error msg ->
    Alcotest.(check bool) "mentions fuel" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "infinite loop should exhaust fuel"

let test_heap_and_store () =
  returns
    (fun b ->
      let t = B.temp b Rclass.Int in
      let u = B.temp b Rclass.Int in
      B.li b t 77;
      B.store b (Operand.temp t) (Operand.int 10) 5;
      B.load b u (Operand.int 12) 3;
      Operand.temp u)
    "77"

let test_getc_putc () =
  let r =
    run_main ~input:"hi" (fun b ->
        let c = B.temp b Rclass.Int in
        let r0 = Machine.arg_reg machine Rclass.Int 0 in
        B.call b ~func:"ext_getc" ~args:[] ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.movet b c (Operand.reg (Machine.int_ret machine));
        B.bin b Instr.Add c (Operand.temp c) (Operand.int 1);
        B.move b (Loc.Reg r0) (Operand.temp c);
        B.call b ~func:"ext_putc" ~args:[ r0 ]
          ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.call b ~func:"ext_getc" ~args:[] ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.movet b c (Operand.reg (Machine.int_ret machine));
        B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp c);
        B.ret b)
  in
  match r with
  | Ok o ->
    Alcotest.(check string) "putc output" "i" o.Lsra_sim.Interp.output;
    Alcotest.(check string) "second getc" "105"
      (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret)
  | Error e -> Alcotest.failf "trapped: %s" e

let test_getc_eof () =
  let r =
    run_main ~input:"" (fun b ->
        B.call b ~func:"ext_getc" ~args:[] ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.ret b)
  in
  match r with
  | Ok o ->
    Alcotest.(check string) "eof is -1" "-1"
      (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret)
  | Error e -> Alcotest.failf "trapped: %s" e

let test_alloc_intrinsic () =
  let r =
    run_main ~input:"" (fun b ->
        let p = B.temp b Rclass.Int in
        let q = B.temp b Rclass.Int in
        let r0 = Machine.arg_reg machine Rclass.Int 0 in
        B.move b (Loc.Reg r0) (Operand.int 4);
        B.call b ~func:"ext_alloc" ~args:[ r0 ]
          ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.movet b p (Operand.reg (Machine.int_ret machine));
        B.move b (Loc.Reg r0) (Operand.int 4);
        B.call b ~func:"ext_alloc" ~args:[ r0 ]
          ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.movet b q (Operand.reg (Machine.int_ret machine));
        (* two allocations do not overlap *)
        B.bin b Instr.Sub q (Operand.temp q) (Operand.temp p);
        B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp q);
        B.ret b)
  in
  Alcotest.(check string) "bump allocation distance" "4" (ret_of r)

(* An external routine whose argument register the machine lacks is a
   trap naming the routine and the register, not an exception. *)
let test_missing_arg_reg_traps () =
  let m = Machine.small ~int_regs:3 ~float_regs:3 () in
  let b = B.create ~name:"main" in
  B.start_block b "entry";
  B.call b ~func:"ext_puti" ~args:[] ~rets:[ Machine.int_ret m ]
    ~clobbers:(Machine.all_caller_saved m);
  B.ret b;
  let prog = Program.create ~main:"main" [ ("main", B.finish b) ] in
  Alcotest.(check string)
    "trap"
    (Printf.sprintf "trap: ext_puti: %s has no int argument register 0"
       (Machine.name m))
    (ret_of (Lsra_sim.Interp.run m prog ~input:""))

let test_caller_saved_poisoning () =
  (* a value wrongly kept in a caller-saved register across a call must
     trap or corrupt deterministically — this is the differential-test
     tripwire, exercised here directly *)
  let caller = List.nth (Machine.caller_saved machine Rclass.Int) 1 in
  let r =
    run_main ~input:"x" (fun b ->
        B.move b (Loc.Reg caller) (Operand.int 5);
        B.call b ~func:"ext_getc" ~args:[] ~rets:[ Machine.int_ret machine ]
          ~clobbers:(Machine.all_caller_saved machine);
        B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.reg caller);
        B.ret b)
  in
  Alcotest.(check string) "poisoned register" "undef" (ret_of r)

let test_callee_saved_preserved () =
  let callee = List.hd (Machine.callee_saved machine Rclass.Int) in
  (* sub uses the callee-saved register without saving it; the runtime
     convention restores it, so main's value survives *)
  let sb = B.create ~name:"sub" in
  B.start_block sb "entry";
  B.move sb (Loc.Reg callee) (Operand.int 999);
  B.move sb (Loc.Reg (Machine.int_ret machine)) (Operand.int 0);
  B.ret sb;
  let sub = B.finish sb in
  let mb = B.create ~name:"main" in
  B.start_block mb "entry";
  B.move mb (Loc.Reg callee) (Operand.int 123);
  B.call mb ~func:"sub" ~args:[] ~rets:[ Machine.int_ret machine ]
    ~clobbers:(Machine.all_caller_saved machine);
  B.move mb (Loc.Reg (Machine.int_ret machine)) (Operand.reg callee);
  B.ret mb;
  let main = B.finish mb in
  let prog = Program.create ~main:"main" [ ("main", main); ("sub", sub) ] in
  match Lsra_sim.Interp.run machine prog ~input:"" with
  | Ok o ->
    Alcotest.(check string) "callee-saved preserved" "123"
      (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret)
  | Error e -> Alcotest.failf "trapped: %s" e

let test_cycle_model () =
  let r =
    run_main ~input:"" (fun b ->
        let t = B.temp b Rclass.Int in
        B.li b t 4 (* 1 cycle *);
        B.bin b Instr.Mul t (Operand.temp t) (Operand.int 3) (* 4 cycles *);
        B.store b (Operand.temp t) (Operand.int 0) 0 (* 3 cycles *);
        B.ret b (* 1 cycle *))
  in
  match r with
  | Ok o ->
    Alcotest.(check int) "cycle charges" 9
      o.Lsra_sim.Interp.counts.Lsra_sim.Interp.cycles;
    Alcotest.(check int) "instruction count" 4
      o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
  | Error e -> Alcotest.failf "trapped: %s" e

let suite =
  [
    Alcotest.test_case "integer arithmetic" `Quick test_int_arithmetic;
    Alcotest.test_case "bitwise and shifts" `Quick test_bitwise_and_shifts;
    Alcotest.test_case "arithmetic shift of negatives" `Quick
      test_sra_negative;
    Alcotest.test_case "unops and conversions" `Quick
      test_unops_and_conversions;
    Alcotest.test_case "comparisons" `Quick test_cmp;
    Alcotest.test_case "division by zero traps" `Quick test_div_by_zero_traps;
    Alcotest.test_case "out-of-bounds access traps" `Quick test_oob_traps;
    Alcotest.test_case "undefined read traps" `Quick test_undef_read_traps;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel;
    Alcotest.test_case "heap store/load with offsets" `Quick
      test_heap_and_store;
    Alcotest.test_case "getc and putc" `Quick test_getc_putc;
    Alcotest.test_case "getc at eof" `Quick test_getc_eof;
    Alcotest.test_case "bump allocator" `Quick test_alloc_intrinsic;
    Alcotest.test_case "missing argument register traps" `Quick
      test_missing_arg_reg_traps;
    Alcotest.test_case "caller-saved poisoning" `Quick
      test_caller_saved_poisoning;
    Alcotest.test_case "callee-saved preservation" `Quick
      test_callee_saved_preserved;
    Alcotest.test_case "cycle model" `Quick test_cycle_model;
  ]
