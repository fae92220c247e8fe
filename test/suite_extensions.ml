open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

(* Tests for the extension passes: Precheck, Slots (frame compaction),
   Layout (RPO reordering). *)

(* ---------------- precheck ---------------- *)

let test_precheck_accepts_workloads () =
  let machine = Machine.alpha_like in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      List.iter
        (fun (_, f) ->
          match Lsra.Precheck.check machine f with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s rejected: %s"
              case.Lsra_workloads.Specbench.name msg)
        (Program.funcs case.Lsra_workloads.Specbench.program))
    (Lsra_workloads.Specbench.all machine ~scale:1)

let test_precheck_rejects_spill_code () =
  let machine = Machine.small () in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.insn b (Instr.Spill_load { dst = Loc.Reg (Machine.int_ret machine); slot = 0 });
  B.ret b;
  let f = B.finish b in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Lsra.Precheck.check machine f))

let test_precheck_rejects_cross_block_register () =
  let machine = Machine.small () in
  let r = Machine.int_ret machine in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg r) (Operand.int 1);
  B.jump b "next";
  B.start_block b "next";
  let t = B.temp b Rclass.Int in
  B.movet b t (Operand.reg r) (* reads $r0 defined in another block *);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check (result unit string))
    "message"
    (Error
       "f: block next reads $r0 before writing it (register live ranges \
        must be block-local): t0 := $r0")
    (Lsra.Precheck.check machine f)

let test_precheck_rejects_cross_block_terminator () =
  let machine = Machine.small () in
  let r = Machine.int_ret machine in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg r) (Operand.int 1);
  B.jump b "next";
  B.start_block b "next";
  B.branch b Instr.Lt (Operand.reg r) (Operand.int 2) ~ifso:"done"
    ~ifnot:"done";
  B.start_block b "done";
  B.ret b;
  let f = B.finish b in
  Alcotest.(check (result unit string))
    "message"
    (Error
       "f: block next reads $r0 before writing it (register live ranges \
        must be block-local): br.lt $r0, 2 ? done : done")
    (Lsra.Precheck.check machine f)

let test_precheck_allows_entry_params () =
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  let t = B.temp b Rclass.Int in
  B.movet b t (Operand.reg (Machine.arg_reg machine Rclass.Int 0));
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp t);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check bool) "accepted" true
    (Result.is_ok (Lsra.Precheck.check machine f))

let test_precheck_rejects_nonexistent_register () =
  let machine = Machine.small ~int_regs:4 () in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg (Mreg.make ~cls:Rclass.Int 20)) (Operand.int 1);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Lsra.Precheck.check machine f))

let test_precheck_rejects_use_before_def () =
  let machine = Machine.small () in
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp t);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Lsra.Precheck.check machine f))

(* ---------------- frame compaction ---------------- *)

let test_slots_compaction_saves_words () =
  let machine = Machine.small ~int_regs:3 ~float_regs:3 () in
  let f = pressure_func ~width:8 ~iters:5 in
  let prog = prog_of_func f in
  let reference = Lsra_sim.Interp.run machine prog ~input:"" in
  let copy = Program.copy prog in
  let f' = Program.find_exn copy "main" in
  second_chance machine f';
  let before = Func.n_slots f' in
  Alcotest.(check bool) "spilled into several slots" true (before >= 2);
  let saved = Lsra.Slots.run f' in
  Alcotest.(check int) "slot count dropped by the savings" (before - saved)
    (Func.n_slots f');
  (* behaviour preserved *)
  match reference, Lsra_sim.Interp.run machine copy ~input:"" with
  | Ok a, Ok b ->
    Alcotest.(check string) "ret"
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string b.Lsra_sim.Interp.ret)
  | Error e, _ | _, Error e -> Alcotest.failf "trapped: %s" e

let test_slots_shares_disjoint_lifetimes () =
  (* two spill slots with provably disjoint lifetimes must end up
     sharing one frame word, and the rehoming must be traced *)
  let machine = Machine.small () in
  let r = Machine.int_ret machine in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg r) (Operand.int 1);
  B.insn b (Instr.Spill_store { src = Loc.Reg r; slot = 0 });
  B.insn b (Instr.Spill_load { dst = Loc.Reg r; slot = 0 });
  (* slot 0 is dead from here on; slot 1's lifetime starts after *)
  B.insn b (Instr.Spill_store { src = Loc.Reg r; slot = 1 });
  B.insn b (Instr.Spill_load { dst = Loc.Reg r; slot = 1 });
  B.ret b;
  let f = B.finish b in
  Func.set_slot_count f 2;
  let trace = Lsra.Trace.create () in
  let saved = Lsra.Slots.run ~trace f in
  Alcotest.(check int) "one frame word shared" 1 saved;
  Alcotest.(check int) "one slot remains" 1 (Func.n_slots f);
  Alcotest.(check bool) "renumbering traced" true
    (List.exists
       (fun (e : Lsra.Trace.event) ->
         match e with
         | Lsra.Trace.Slot_renumber { fn = "f"; from_slot = 1; to_slot = 0 }
           ->
           true
         | _ -> false)
       (Lsra.Trace.events trace));
  (* both loads now read the shared word *)
  Func.iter_instrs f (fun i ->
      match Instr.desc i with
      | Instr.Spill_load { slot; _ } | Instr.Spill_store { slot; _ } ->
        Alcotest.(check int) "rehomed to slot 0" 0 slot
      | _ -> ())

let test_slots_compaction_on_workloads () =
  let machine = Lsra_sim.Sweep.small_7_7 in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let reference =
        Lsra_sim.Interp.run machine case.Lsra_workloads.Specbench.program
          ~input:case.Lsra_workloads.Specbench.input
      in
      let copy = Program.copy case.Lsra_workloads.Specbench.program in
      ignore
        (Lsra.Allocator.pipeline Lsra.Allocator.default_second_chance machine
           copy);
      ignore (Lsra.Passes.run_pass Lsra.Passes.Slots copy);
      match
        ( reference,
          Lsra_sim.Interp.run machine copy
            ~input:case.Lsra_workloads.Specbench.input )
      with
      | Ok a, Ok b ->
        Alcotest.(check string)
          (case.Lsra_workloads.Specbench.name ^ " output")
          a.Lsra_sim.Interp.output b.Lsra_sim.Interp.output
      | Error e, _ | _, Error e ->
        Alcotest.failf "%s trapped: %s" case.Lsra_workloads.Specbench.name e)
    (Lsra_workloads.Specbench.all machine ~scale:1)

(* ---------------- layout ---------------- *)

let scrambled_func () =
  (* blocks deliberately laid out against the flow: exit first after
     entry, loop body last *)
  let machine = Machine.small ~int_regs:4 () in
  let b = B.create ~name:"main" in
  let acc = B.temp b Rclass.Int ~name:"acc" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let xs = List.init 5 (fun k -> B.temp b Rclass.Int ~name:(Printf.sprintf "x%d" k)) in
  B.start_block b "entry";
  B.li b acc 0;
  B.li b i 0;
  List.iteri (fun k x -> B.li b x k) xs;
  B.jump b "head";
  B.start_block b "exit";
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp acc);
  B.ret b;
  B.start_block b "head";
  B.branch b Instr.Lt (Operand.temp i) (Operand.int 6) ~ifso:"body" ~ifnot:"exit";
  B.start_block b "body";
  List.iter (fun x -> B.bin b Instr.Add acc (o_temp acc) (o_temp x)) xs;
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.jump b "head";
  (machine, B.finish b)

let test_rpo_order () =
  let _, f = scrambled_func () in
  let order = Lsra.Layout.rpo_order f in
  Alcotest.(check bool) "entry first" true (List.hd order = "entry");
  Alcotest.(check int) "all blocks present" 4 (List.length order);
  (* head precedes both body and exit in RPO *)
  let idx l = Option.get (List.find_index (String.equal l) order) in
  Alcotest.(check bool) "head before body" true (idx "head" < idx "body");
  Alcotest.(check bool) "head before exit" true (idx "head" < idx "exit")

let test_rpo_preserves_behaviour () =
  let machine, f = scrambled_func () in
  let prog = prog_of_func f in
  let reference = Lsra_sim.Interp.run machine prog ~input:"" in
  let copy = Program.copy prog in
  Lsra.Layout.apply_rpo_program copy;
  (match reference, Lsra_sim.Interp.run machine copy ~input:"" with
  | Ok a, Ok b ->
    Alcotest.(check string) "ret"
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string b.Lsra_sim.Interp.ret)
  | Error e, _ | _, Error e -> Alcotest.failf "trapped: %s" e);
  (* and allocation on the reordered program still verifies + matches *)
  ignore
    (check_differential ~name:"rpo-alloc" machine copy
       (second_chance machine))

let test_rpo_reduces_resolution_on_scrambled_layout () =
  (* layout effects are heuristic per function; the claim is aggregate:
     over many random programs whose non-entry blocks have been reversed
     (an adversarial layout), RPO reordering produces no more total
     resolution code *)
  let machine = Machine.small ~int_regs:5 ~float_regs:5 () in
  let total_scrambled = ref 0 and total_rpo = ref 0 in
  for seed = 0 to 14 do
    let params =
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    in
    let prog = Lsra_workloads.Gen.program ~params machine in
    List.iter
      (fun (_, f) ->
        let cfg = Func.cfg f in
        (* reverse every block after the entry *)
        let labels =
          Array.to_list (Cfg.blocks cfg) |> List.map Block.label
        in
        (match labels with
        | entry :: rest -> Cfg.reorder cfg (entry :: List.rev rest)
        | [] -> ());
        let resolution g =
          let g = Func.copy g in
          let stats =
            Lsra.Allocator.run Lsra.Allocator.default_second_chance machine g
          in
          stats.Lsra.Stats.resolve_loads + stats.Lsra.Stats.resolve_stores
          + stats.Lsra.Stats.resolve_moves
        in
        total_scrambled := !total_scrambled + resolution f;
        let r = Func.copy f in
        Lsra.Layout.apply_rpo r;
        total_rpo := !total_rpo + resolution r)
      (Program.funcs prog)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rpo total (%d) <= scrambled total (%d)" !total_rpo
       !total_scrambled)
    true
    (!total_rpo <= !total_scrambled)

let test_reorder_rejects_bad_permutations () =
  let _, f = scrambled_func () in
  let cfg = Func.cfg f in
  Alcotest.(check bool) "wrong count rejected" true
    (match Cfg.reorder cfg [ "entry" ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false);
  Alcotest.(check bool) "entry must stay first" true
    (match Cfg.reorder cfg [ "head"; "entry"; "body"; "exit" ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "precheck accepts the workloads" `Quick
      test_precheck_accepts_workloads;
    Alcotest.test_case "precheck rejects spill code" `Quick
      test_precheck_rejects_spill_code;
    Alcotest.test_case "precheck rejects cross-block registers" `Quick
      test_precheck_rejects_cross_block_register;
    Alcotest.test_case "precheck names a cross-block terminator read" `Quick
      test_precheck_rejects_cross_block_terminator;
    Alcotest.test_case "precheck allows entry parameters" `Quick
      test_precheck_allows_entry_params;
    Alcotest.test_case "precheck rejects unknown registers" `Quick
      test_precheck_rejects_nonexistent_register;
    Alcotest.test_case "precheck rejects use-before-def" `Quick
      test_precheck_rejects_use_before_def;
    Alcotest.test_case "frame compaction saves words" `Quick
      test_slots_compaction_saves_words;
    Alcotest.test_case "frame compaction shares disjoint lifetimes" `Quick
      test_slots_shares_disjoint_lifetimes;
    Alcotest.test_case "frame compaction preserves workloads" `Quick
      test_slots_compaction_on_workloads;
    Alcotest.test_case "rpo order" `Quick test_rpo_order;
    Alcotest.test_case "rpo preserves behaviour" `Quick
      test_rpo_preserves_behaviour;
    Alcotest.test_case "rpo reduces resolution on bad layouts" `Quick
      test_rpo_reduces_resolution_on_scrambled_layout;
    Alcotest.test_case "reorder input validation" `Quick
      test_reorder_rejects_bad_permutations;
  ]
