open Lsra_ir
open Lsra_target

(* Property-based differential testing: every allocator, on randomly
   generated well-defined programs over several machine shapes, must
   produce code that (a) the verifier accepts and (b) computes the same
   observable output as the unallocated program. *)

let machines =
  [
    ("alpha", Machine.alpha_like);
    ("small-8", Lsra_sim.Sweep.small_8);
    ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
    ("min-3", Machine.small ~int_regs:3 ~float_regs:3 ~int_caller_saved:1 ~float_caller_saved:1 ());
  ]

let algorithms =
  [
    ("second-chance", fun m f -> Helpers.second_chance m f);
    ( "second-chance-conservative",
      Helpers.second_chance
        ~opts:
          {
            Lsra.Binpack.early_second_chance = true;
            move_opt = true;
            consistency = Lsra.Binpack.Conservative;
          } );
    ("coloring", fun m f -> ignore (Lsra.Allocator.(run Graph_coloring) m f));
    ("two-pass", fun m f -> ignore (Lsra.Allocator.(run Two_pass) m f));
    ("poletto", fun m f -> ignore (Lsra.Allocator.(run Poletto) m f));
  ]

let run_one ~mname machine ~aname alloc seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 6 + (seed mod 13);
      n_stmts = 8 + (seed mod 17);
      n_funcs = 1 + (seed mod 3);
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  let input = String.init 16 (fun i -> Char.chr (65 + ((seed + i) mod 26))) in
  let reference = Lsra_sim.Interp.run machine prog ~input in
  let copy = Program.copy prog in
  List.iter
    (fun (n, f) ->
      let original = Func.copy f in
      alloc machine f;
      match Lsra.Verify.check machine ~original ~allocated:f with
      | Ok () -> ()
      | Error e ->
        QCheck.Test.fail_reportf
          "[%s/%s seed %d] verifier rejects %s at '%s': %s" mname aname seed
          n e.Lsra.Verify.where e.Lsra.Verify.what)
    (Program.funcs copy);
  let allocated = Lsra_sim.Interp.run machine copy ~input in
  match reference, allocated with
  | Ok r, Ok a ->
    if
      r.Lsra_sim.Interp.output <> a.Lsra_sim.Interp.output
      || not (Lsra_sim.Value.equal r.Lsra_sim.Interp.ret a.Lsra_sim.Interp.ret)
    then
      QCheck.Test.fail_reportf
        "[%s/%s seed %d] output mismatch: ref (%s, %S) vs alloc (%s, %S)"
        mname aname seed
        (Lsra_sim.Value.to_string r.Lsra_sim.Interp.ret)
        r.Lsra_sim.Interp.output
        (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret)
        a.Lsra_sim.Interp.output
    else true
  | Error e, _ ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] reference trapped: %s" mname
      aname seed e
  | Ok _, Error e ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] allocated trapped: %s" mname
      aname seed e

let tests =
  List.concat_map
    (fun (mname, machine) ->
      List.map
        (fun (aname, alloc) ->
          QCheck.Test.make
            ~name:(Printf.sprintf "differential %s on %s" aname mname)
            ~count:25
            QCheck.(int_range 0 100_000)
            (fun seed -> run_one ~mname machine ~aname alloc seed))
        algorithms)
    machines

let suite = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* Full managed pipeline, under the oracle sandwich: RPO relayout, then
   Diffexec.check_pipeline runs every pass (copyprop, dce, allocation,
   motion, peephole, slots), re-interpreting after each one and
   re-verifying every post-allocation stage. Any divergence — from the
   allocator or pinned to a cleanup pass — fails the property. *)
let run_full_pipeline ~mname machine ~aname algo seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8 + (seed mod 11);
      n_stmts = 10 + (seed mod 13);
      n_funcs = 1 + (seed mod 2);
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  Lsra.Layout.apply_rpo_program prog;
  match
    Lsra_sim.Diffexec.check_pipeline ~input:"pipeline"
      ~passes:Lsra.Passes.all machine algo prog
  with
  | Ok _stats -> true
  | Error d ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] %s" mname aname seed
      (Lsra_sim.Diffexec.divergence_to_string d)

let pipeline_tests =
  List.concat_map
    (fun (mname, machine) ->
      List.map
        (fun algo ->
          QCheck.Test.make
            ~name:
              (Printf.sprintf "full pipeline %s on %s (all passes)"
                 (Lsra.Allocator.short_name algo)
                 mname)
            ~count:10
            QCheck.(int_range 0 100_000)
            (fun seed ->
              run_full_pipeline ~mname machine
                ~aname:(Lsra.Allocator.short_name algo)
                algo seed))
        Lsra.Allocator.all)
    [
      ("alpha", Machine.alpha_like);
      ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
    ]

let suite =
  suite @ List.map (QCheck_alcotest.to_alcotest ~long:false) pipeline_tests
