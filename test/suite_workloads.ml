open Lsra_ir
open Lsra_target

(* Every synthetic benchmark, compiled by every allocator, must verify
   and behave exactly like the unallocated program. *)

let check_case machine (case : Lsra_workloads.Specbench.case) =
  let reference =
    Lsra_sim.Interp.run machine case.Lsra_workloads.Specbench.program
      ~input:case.Lsra_workloads.Specbench.input
  in
  let ref_out =
    match reference with
    | Ok o -> o.Lsra_sim.Interp.output
    | Error e ->
      Alcotest.failf "%s: reference trapped: %s"
        case.Lsra_workloads.Specbench.name e
  in
  Alcotest.(check bool)
    (case.Lsra_workloads.Specbench.name ^ " produces output")
    true
    (String.length ref_out > 0);
  List.iter
    (fun algo ->
      let aname = Lsra.Allocator.short_name algo in
      let copy = Program.copy case.Lsra_workloads.Specbench.program in
      List.iter
        (fun (fname, f) ->
          let original = Func.copy f in
          ignore (Lsra.Allocator.run algo machine f);
          match Lsra.Verify.check machine ~original ~allocated:f with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s/%s: verifier rejects %s at '%s': %s"
              case.Lsra_workloads.Specbench.name aname fname
              e.Lsra.Verify.where e.Lsra.Verify.what)
        (Program.funcs copy);
      ignore (Lsra.Passes.run_pass Lsra.Passes.Peephole copy);
      match
        Lsra_sim.Interp.run machine copy
          ~input:case.Lsra_workloads.Specbench.input
      with
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "%s under %s" case.Lsra_workloads.Specbench.name
             aname)
          ref_out o.Lsra_sim.Interp.output
      | Error e ->
        Alcotest.failf "%s/%s: allocated run trapped: %s"
          case.Lsra_workloads.Specbench.name aname e)
    Lsra.Allocator.heuristics

let machine_tests machine mname =
  List.map
    (fun case ->
      Alcotest.test_case
        (Printf.sprintf "%s on %s" case.Lsra_workloads.Specbench.name mname)
        `Quick
        (fun () -> check_case machine case))
    (Lsra_workloads.Specbench.all machine ~scale:1)

(* A scale below 1 builds loops that never run or run a negative count;
   both entry points refuse it instead of building such a program. *)
let test_scale_below_one () =
  let machine = Machine.alpha_like in
  List.iter
    (fun scale ->
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s ~scale:%d built a program" what scale
        | exception Invalid_argument _ -> ()
      in
      raises "find" (fun () ->
          ignore (Lsra_workloads.Specbench.find machine ~scale "wc"));
      raises "find (unknown name)" (fun () ->
          ignore (Lsra_workloads.Specbench.find machine ~scale "nope"));
      raises "all" (fun () ->
          ignore (Lsra_workloads.Specbench.all machine ~scale)))
    [ 0; -1 ]

let suite =
  Alcotest.test_case "scale below 1 is refused" `Quick test_scale_below_one
  :: machine_tests Machine.alpha_like "alpha"
  @ machine_tests
      (Machine.small ~int_regs:9 ~float_regs:9 ~int_caller_saved:5
         ~float_caller_saved:5 ())
      "small-9"
