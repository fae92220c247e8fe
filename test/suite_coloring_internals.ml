open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

(* Behavioural tests of the iterated-register-coalescing internals, via
   the Stats counters and the shape of the output code. *)

let test_move_chain_coalesces () =
  (* a chain of moves between temps must collapse to nothing *)
  let machine = Machine.small () in
  let b = B.create ~name:"f" in
  let t0 = B.temp b Rclass.Int in
  let t1 = B.temp b Rclass.Int in
  let t2 = B.temp b Rclass.Int in
  let t3 = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t0 9;
  B.movet b t1 (o_temp t0);
  B.movet b t2 (o_temp t1);
  B.movet b t3 (o_temp t2);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp t3);
  B.ret b;
  let f = B.finish b in
  let stats = Lsra.Allocator.(run Graph_coloring) machine f in
  Alcotest.(check bool) "several moves coalesced" true
    (stats.Lsra.Stats.coalesced_moves >= 3);
  ignore (Lsra.Peephole.run f);
  (* after coalescing + peephole the body is just the li and maybe one
     move into the return register *)
  let n = Array.length (Block.body (Cfg.block (Func.cfg f) "entry")) in
  Alcotest.(check bool) "chain collapsed" true (n <= 2)

let test_constrained_move_not_coalesced () =
  (* x and y interfere; the move between them must NOT be coalesced *)
  let machine = Machine.small () in
  let b = B.create ~name:"f" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 1;
  B.movet b y (o_temp x);
  B.bin b Instr.Add x (o_temp x) (o_int 1);
  B.bin b Instr.Add y (o_temp y) (o_temp x);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp y);
  B.ret b;
  let f = B.finish b in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"constrained" machine prog (fun fn ->
        ignore (Lsra.Allocator.(run Graph_coloring) machine fn))
  in
  Alcotest.(check string) "result" "3"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_iteration_count_grows_with_pressure () =
  let machine = Machine.alpha_like in
  let low =
    Lsra_workloads.Pressure.proc machine ~name:"low" ~candidates:300
      ~window:5
  in
  let high =
    Lsra_workloads.Pressure.proc machine ~name:"high" ~candidates:3000
      ~window:12 ~clique:44
  in
  let s_low = Lsra.Allocator.(run Graph_coloring) machine low in
  let s_high = Lsra.Allocator.(run Graph_coloring) machine high in
  Alcotest.(check int) "no spill iterations on low pressure" 1
    s_low.Lsra.Stats.coloring_iterations;
  Alcotest.(check bool) "spill iterations on high pressure" true
    (s_high.Lsra.Stats.coloring_iterations >= 2);
  Alcotest.(check bool) "edges grow" true
    (s_high.Lsra.Stats.interference_edges
    > s_low.Lsra.Stats.interference_edges)

let test_precolored_constraints_respected () =
  (* a temp live across an explicit use of every low register must get a
     high register; exercised by running on a machine where only one
     register remains *)
  let machine = Machine.small ~int_regs:3 ~float_regs:3 () in
  let f = pressure_func ~width:2 ~iters:3 in
  ignore
    (check_differential ~name:"precolored" machine (prog_of_func f)
       (fun fn -> ignore (Lsra.Allocator.(run Graph_coloring) machine fn)))

let test_separate_classes () =
  (* int pressure must not cause float spills and vice versa *)
  let machine =
    Machine.small ~int_regs:3 ~float_regs:8 ~int_caller_saved:1
      ~float_caller_saved:2 ()
  in
  let b = B.create ~name:"f" in
  let ints = List.init 6 (fun _ -> B.temp b Rclass.Int) in
  let flt = B.temp b Rclass.Float in
  B.start_block b "entry";
  B.lf b flt 1.5;
  List.iteri (fun k t -> B.li b t k) ints;
  let acc = B.temp b Rclass.Int in
  B.li b acc 0;
  List.iter (fun t -> B.bin b Instr.Add acc (o_temp acc) (o_temp t)) ints;
  B.bin b Instr.Fadd flt (o_temp flt) (o_temp flt);
  let fi = B.temp b Rclass.Int in
  B.un b Instr.Ftoi fi (o_temp flt);
  B.bin b Instr.Add acc (o_temp acc) (o_temp fi);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp acc);
  B.ret b;
  let f = B.finish b in
  let f' = Func.copy f in
  let stats = Lsra.Allocator.(run Graph_coloring) machine f' in
  (* ints spill (6 simultaneous > 3 regs), floats must not *)
  Alcotest.(check bool) "some spills happened" true
    (Lsra.Stats.total_spill stats > 0);
  let float_spills = ref 0 in
  Func.iter_instrs f' (fun i ->
      match Instr.desc i with
      | Instr.Spill_load { dst = Loc.Reg r; _ }
      | Instr.Spill_store { src = Loc.Reg r; _ }
        when Rclass.equal (Mreg.cls r) Rclass.Float ->
        incr float_spills
      | _ -> ());
  Alcotest.(check int) "no float spill traffic" 0 !float_spills;
  ignore
    (check_differential ~name:"classes" machine (prog_of_func f) (fun fn ->
         ignore (Lsra.Allocator.(run Graph_coloring) machine fn)))

let test_spill_fragments_are_local () =
  (* after a spill round, the rewritten program's fresh temps are block-
     local (the paper's justification for computing liveness once) *)
  let machine = Machine.small ~int_regs:3 ~float_regs:3 () in
  let f = pressure_func ~width:6 ~iters:4 in
  let bound_before = Func.temp_bound f in
  ignore (Lsra.Allocator.(run Graph_coloring) machine f);
  (* allocation completed: every temp is gone, so just check that spill
     code was inserted and the function still validates *)
  Alcotest.(check bool) "fresh temps were created" true
    (Func.temp_bound f >= bound_before);
  Func.validate f

let suite =
  [
    Alcotest.test_case "move chains coalesce" `Quick
      test_move_chain_coalesces;
    Alcotest.test_case "interfering moves constrained" `Quick
      test_constrained_move_not_coalesced;
    Alcotest.test_case "iterations grow with pressure" `Quick
      test_iteration_count_grows_with_pressure;
    Alcotest.test_case "precolored constraints" `Quick
      test_precolored_constraints_respected;
    Alcotest.test_case "register classes are independent" `Quick
      test_separate_classes;
    Alcotest.test_case "spill fragments stay local" `Quick
      test_spill_fragments_are_local;
  ]
