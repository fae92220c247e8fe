open Lsra_ir
open Lsra_target
open Helpers
module B = Builder

let two_pass machine f = ignore (Lsra.Allocator.(run Two_pass) machine f)
let poletto machine f = ignore (Lsra.Allocator.(run Poletto) machine f)

let test_two_pass_basic () =
  let machine = Machine.small () in
  let f = pressure_func ~width:3 ~iters:5 in
  ignore
    (check_differential ~name:"twopass-basic" machine (prog_of_func f)
       (two_pass machine))

let test_two_pass_pressure () =
  let machine = Machine.small ~int_regs:4 () in
  let f = pressure_func ~width:8 ~iters:10 in
  let o =
    check_differential ~name:"twopass-pressure" machine (prog_of_func f)
      (two_pass machine)
  in
  Alcotest.(check bool)
    "spills" true
    (Lsra_sim.Interp.spill_total o.Lsra_sim.Interp.counts > 0)

let test_poletto_basic () =
  let machine = Machine.small ~int_regs:6 ~float_regs:6 () in
  let f = pressure_func ~width:3 ~iters:5 in
  ignore
    (check_differential ~name:"poletto-basic" machine (prog_of_func f)
       (poletto machine))

let test_poletto_pressure () =
  let machine = Machine.small ~int_regs:6 ~float_regs:6 () in
  let f = pressure_func ~width:9 ~iters:10 in
  let o =
    check_differential ~name:"poletto-pressure" machine (prog_of_func f)
      (poletto machine)
  in
  Alcotest.(check bool)
    "spills" true
    (Lsra_sim.Interp.spill_total o.Lsra_sim.Interp.counts > 0)

(* The paper's §3.1 wc observation: temporaries live across a call in a
   loop make two-pass binpacking much worse than second chance, because
   only second chance can park them in caller-saved registers between
   calls. *)
let wc_shape machine n =
  (* Read-only "weights" live around a loop containing a call, each read
     several times per iteration: second chance parks them in caller-saved
     registers, pays one store ever, and reloads once per iteration;
     two-pass spills them outright and reloads at every use. *)
  let b = B.create ~name:"main" in
  let live = List.init n (fun k -> B.temp b Rclass.Int ~name:(Printf.sprintf "w%d" k)) in
  let c = B.temp b Rclass.Int in
  let acc = B.temp b Rclass.Int ~name:"acc" in
  B.start_block b "entry";
  List.iteri (fun k t -> B.li b t (k + 3)) live;
  B.li b acc 0;
  B.start_block b "loop";
  call_int b machine ~func:"ext_getc" ~args:[] ~ret:(Some c);
  B.branch b Instr.Lt (o_temp c) (o_int 0) ~ifso:"exit" ~ifnot:"body";
  B.start_block b "body";
  List.iter
    (fun t ->
      let p = B.temp b Rclass.Int in
      B.bin b Instr.Mul p (o_temp t) (o_temp c);
      B.bin b Instr.Add acc (o_temp acc) (o_temp p);
      B.bin b Instr.Xor acc (o_temp acc) (o_temp t);
      B.bin b Instr.Add acc (o_temp acc) (o_temp t))
    live;
  B.jump b "loop";
  B.start_block b "exit";
  List.iter (fun t -> B.bin b Instr.Add acc (o_temp acc) (o_temp t)) live;
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp acc);
  B.ret b;
  B.finish b

let test_wc_two_pass_worse () =
  (* callee-saved registers cannot hold all the loop-carried values, so
     two-pass must spill inside the loop; second chance evicts around the
     call without stores. *)
  let machine = Machine.small ~int_regs:8 ~int_caller_saved:5 () in
  let input = String.make 40 'a' in
  let n = 5 in
  let run alloc name =
    let o =
      check_differential ~name ~input machine (prog_of_func (wc_shape machine n))
        alloc
    in
    o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
  in
  let sc = run (second_chance machine) "wc-sc" in
  let tp = run (two_pass machine) "wc-tp" in
  Alcotest.(check bool)
    (Printf.sprintf "two-pass (%d) slower than second chance (%d)" tp sc)
    true (tp > sc)

let suite =
  [
    Alcotest.test_case "two-pass basic" `Quick test_two_pass_basic;
    Alcotest.test_case "two-pass pressure" `Quick test_two_pass_pressure;
    Alcotest.test_case "poletto basic" `Quick test_poletto_basic;
    Alcotest.test_case "poletto pressure" `Quick test_poletto_pressure;
    Alcotest.test_case "wc: two-pass worse than second chance" `Quick
      test_wc_two_pass_worse;
  ]
