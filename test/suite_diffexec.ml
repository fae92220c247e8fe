open Lsra_ir
open Lsra_target
module D = Lsra_sim.Diffexec

(* The differential-execution oracle: it must pass every allocator on
   well-defined programs, catch a deliberately corrupted allocation
   purely by executing it (verifier off), and shrink failing programs to
   smaller ones that still fail. *)

let tiny = Machine.small ~int_regs:4 ~float_regs:4 ()

let gen_prog ?(machine = tiny) seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8;
      n_stmts = 10;
      n_funcs = 2;
    }
  in
  Lsra_workloads.Gen.program ~params machine

let test_oracle_accepts_all_allocators () =
  List.iter
    (fun seed ->
      let prog = gen_prog seed in
      match D.check_all ~input:"abc" tiny prog with
      | [] -> ()
      | (algo, d) :: _ ->
        Alcotest.failf "seed %d under %s: %s" seed algo
          (D.divergence_to_string d))
    [ 1; 2; 3; 4; 5 ]

(* An allocator that allocates correctly, then corrupts one live
   original instruction: flip the `* 31` of the observable-state hash
   fold into `* 29`. With the verifier off, only execution can notice. *)
let corrupting_alloc machine func =
  Helpers.second_chance machine func;
  let corrupted = ref false in
  Cfg.iter_blocks
    (fun b ->
      Block.set_body b
        (Array.map
           (fun i ->
             match Instr.desc i with
             | Instr.Bin { op = Instr.Mul; dst; a; b = Operand.Int 31 }
               when not !corrupted ->
               corrupted := true;
               Instr.with_desc i
                 (Instr.Bin
                    { op = Instr.Mul; dst; a; b = Operand.Int 29 })
             | _ -> i)
           (Block.body b)))
    (Func.cfg func)

let test_oracle_catches_corruption () =
  let prog = gen_prog 7 in
  match D.check_with ~verify:false tiny corrupting_alloc prog with
  | Error (D.Ret_mismatch _ | D.Output_mismatch _) -> ()
  | Error d ->
    Alcotest.failf "unexpected divergence kind: %s" (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "oracle missed a corrupted multiplication"

let test_verifier_reject_is_reported () =
  (* With the verifier on, the same corruption of an original
     instruction's constant is not a verifier concern (operands other
     than locations are untouched by allocation in its model), so it
     still surfaces as an execution divergence — but a corrupted
     register must surface as a Verifier_reject before execution. *)
  let reg_corrupting_alloc machine func =
    Helpers.second_chance machine func;
    let evil = Loc.Reg (Mreg.make ~cls:Rclass.Int 0) in
    let corrupted = ref false in
    Cfg.iter_blocks
      (fun b ->
        Block.set_body b
          (Array.map
             (fun i ->
               match Instr.tag i, Instr.desc i with
               | Instr.Original, Instr.Bin { op; dst; a = Operand.Loc _; b }
                 when not !corrupted ->
                 corrupted := true;
                 Instr.with_desc i
                   (Instr.Bin { op; dst; a = Operand.Loc evil; b })
               | _ -> i)
             (Block.body b)))
      (Func.cfg func)
  in
  let prog = gen_prog 11 in
  match D.check_with ~verify:true tiny reg_corrupting_alloc prog with
  | Error (D.Verifier_reject e) ->
    Alcotest.(check bool) "fn is reported" true (String.length e.Lsra.Verify.fn > 0)
  | Error d ->
    Alcotest.failf "expected a verifier reject, got: %s"
      (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "verifier missed a rewritten register operand"

let prog_size p =
  List.fold_left (fun acc (_, f) -> acc + Func.n_instrs f) 0 (Program.funcs p)

let test_shrink_reduces_and_preserves_failure () =
  let prog = gen_prog 13 in
  let alloc = corrupting_alloc in
  (match D.check_with ~verify:false tiny alloc prog with
  | Ok () -> Alcotest.fail "expected the corrupted allocation to fail"
  | Error _ -> ());
  let small = D.shrink ~verify:false tiny alloc prog in
  Alcotest.(check bool)
    "shrunk program is no larger" true
    (prog_size small <= prog_size prog);
  (match D.check_with ~verify:false tiny alloc small with
  | Ok () -> Alcotest.fail "shrinking lost the failure"
  | Error _ -> ());
  (* the reproducer must survive a textual round-trip *)
  let text = Lsra_text.Ir_text.to_string small in
  ignore (Lsra_text.Ir_text.of_string text)

let test_shrink_keeps_passing_program () =
  let prog = gen_prog 17 in
  let out = D.shrink tiny Helpers.second_chance prog in
  Alcotest.(check int) "untouched" (prog_size prog) (prog_size out)

let test_corpus_spot_check () =
  (* one synthetic benchmark and one Minilang program, all four
     allocators, on a spill-heavy machine *)
  let machine = Lsra_sim.Sweep.small_7_7 in
  (match Lsra_workloads.Specbench.find machine ~scale:1 "wc" with
  | None -> Alcotest.fail "wc benchmark missing"
  | Some case -> (
    match
      D.check_all machine case.Lsra_workloads.Specbench.program
        ~input:case.Lsra_workloads.Specbench.input
    with
    | [] -> ()
    | (algo, d) :: _ ->
      Alcotest.failf "wc under %s: %s" algo (D.divergence_to_string d)));
  let mini =
    Lsra_frontend.Minilang.compile machine
      Lsra_workloads.Mini_corpus.collatz
  in
  match D.check_all machine mini ~input:"" with
  | [] -> ()
  | (algo, d) :: _ ->
    Alcotest.failf "collatz under %s: %s" algo (D.divergence_to_string d)

(* The first three of diffcheck's generated cases (seeds 0-2) on every
   machine they are checked on, under every allocator and every managed
   pass. *)
let test_fuzz_smoke () =
  List.iter
    (fun (mname, machine) ->
      let cases =
        List.filteri (fun i _ -> i < 3) (Lsra_sim.Sweep.generated machine)
      in
      List.iter
        (fun { Lsra_sim.Sweep.name; program; input } ->
          List.iter
            (fun algo ->
              match D.check_pipeline ~input machine algo program with
              | Ok _ -> ()
              | Error d ->
                Alcotest.failf "%s on %s under %s: %s" name mname
                  (Lsra.Allocator.short_name algo)
                  (D.divergence_to_string d))
            Lsra.Allocator.all)
        cases)
    Lsra_sim.Sweep.fuzz_machines

(* The full managed pipeline (every cleanup pass, per-pass oracle
   checks) must pass every allocator, and it is the real pipeline: its
   stats are [Allocator.pipeline]'s on a copy, allocation counters and
   the Slots accounting included, and DCE hands its liveness to the
   allocator, so no allocator solves it ([Liveness] time stays 0). *)
let test_pipeline_oracle_accepts_all_passes () =
  let counters (s : Lsra.Stats.t) =
    [
      s.evict_loads; s.evict_stores; s.evict_moves; s.resolve_loads;
      s.resolve_stores; s.resolve_moves; s.slots; s.frame_saved;
    ]
  in
  let small_8 = Lsra_sim.Sweep.small_8 in
  let wc =
    match Lsra_workloads.Specbench.find small_8 ~scale:1 "wc" with
    | Some c -> ("wc on small-8", small_8, c.program, c.input)
    | None -> Alcotest.fail "wc benchmark missing"
  in
  List.iter
    (fun (what, machine, prog, input) ->
      List.iter
        (fun algo ->
          let what = what ^ " under " ^ Lsra.Allocator.short_name algo in
          let passes = Lsra.Passes.all in
          match D.check_pipeline ~input ~passes machine algo prog with
          | Ok stats ->
            if stats.Lsra.Stats.frame_saved < 0 then
              Alcotest.fail "negative frame_saved";
            let copy = Program.copy prog in
            Alcotest.(check (list int))
              (what ^ ": spill counters, slots, frame_saved")
              (counters (Lsra.Allocator.pipeline ~passes algo machine copy))
              (counters stats);
            Alcotest.(check (float 0.))
              (what ^ ": liveness time") 0.
              stats.pass_time.(Lsra.Stats.pass_index Lsra.Stats.Liveness)
          | Error d ->
            Alcotest.failf "pipeline oracle failed %s: %s" what
              (D.divergence_to_string d))
        Lsra_sim.Sweep.oracle_algorithms)
    (wc
    :: List.map
         (fun seed ->
           (Printf.sprintf "seed %d" seed, tiny, gen_prog seed, "abc"))
         [ 11; 12; 13 ])

(* Exit-code classification: a verifier reject stays a "reject" even
   when a cleanup pass introduced it, everything else is behavioral. *)
let test_pass_divergence_classification () =
  let reject =
    D.Verifier_reject
      { Lsra.Verify.fn = "f"; block = "entry"; where = "x"; what = "w" }
  in
  let behavioral = D.Output_mismatch { expected = "1"; actual = "2" } in
  Alcotest.(check bool) "bare reject" true (D.is_verifier_reject reject);
  Alcotest.(check bool)
    "reject wrapped in a pass" true
    (D.is_verifier_reject
       (D.Pass_divergence { pass = "peephole"; underlying = reject }));
  Alcotest.(check bool)
    "behavioral wrapped in a pass" false
    (D.is_verifier_reject
       (D.Pass_divergence { pass = "motion"; underlying = behavioral }));
  let printed =
    D.divergence_to_string
      (D.Pass_divergence { pass = "motion"; underlying = behavioral })
  in
  if not (String.length printed > 0) then Alcotest.fail "empty rendering"

let test_reference_trap_is_not_an_allocator_bug () =
  (* a program reading an undefined temp traps before allocation: the
     oracle must blame the input, not the allocator *)
  let b = Builder.create ~name:"main" in
  let x = Builder.temp b Rclass.Int in
  Builder.start_block b "entry";
  Builder.bin b Instr.Add x (Operand.temp x) (Operand.int 1);
  Builder.move b (Loc.Reg (Machine.int_ret tiny)) (Operand.temp x);
  Builder.ret b;
  let prog = Program.create ~main:"main" [ ("main", Builder.finish b) ] in
  match D.check tiny Lsra.Allocator.default_second_chance prog with
  | Error (D.Reference_trap _) -> ()
  | Error d ->
    Alcotest.failf "expected a reference trap, got %s"
      (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "expected the ill-defined program to trap"

let suite =
  [
    Alcotest.test_case "oracle passes all allocators on random programs"
      `Quick test_oracle_accepts_all_allocators;
    Alcotest.test_case "oracle catches a corrupted computation by execution"
      `Quick test_oracle_catches_corruption;
    Alcotest.test_case "verifier rejects are reported with context" `Quick
      test_verifier_reject_is_reported;
    Alcotest.test_case "shrink reduces a failing program and keeps it failing"
      `Quick test_shrink_reduces_and_preserves_failure;
    Alcotest.test_case "shrink leaves a passing program alone" `Quick
      test_shrink_keeps_passing_program;
    Alcotest.test_case "corpus spot check under all four allocators" `Quick
      test_corpus_spot_check;
    Alcotest.test_case "fuzz smoke on fixed seeds" `Slow test_fuzz_smoke;
    Alcotest.test_case "pipeline oracle passes with every cleanup pass" `Quick
      test_pipeline_oracle_accepts_all_passes;
    Alcotest.test_case "pass divergences classify and render" `Quick
      test_pass_divergence_classification;
    Alcotest.test_case "a trapping input blames the reference" `Quick
      test_reference_trap_is_not_an_allocator_bug;
  ]
