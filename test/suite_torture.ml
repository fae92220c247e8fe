open Lsra_ir
open Lsra_target

(* The torture workloads across every allocator and several machine
   sizes, differentially and verified — rotation sizes are swept right
   down to machines where the permutation cannot fit in registers. *)

let check name machine prog =
  let reference = Lsra_sim.Interp.run machine prog ~input:"zyxwvut" in
  let ref_out =
    match reference with
    | Ok o -> o.Lsra_sim.Interp.output
    | Error e -> Alcotest.failf "%s: reference trapped: %s" name e
  in
  List.iter
    (fun algo ->
      let aname = Lsra.Allocator.short_name algo in
      let copy = Program.copy prog in
      List.iter
        (fun (n, f) ->
          let original = Func.copy f in
          ignore (Lsra.Allocator.run algo machine f);
          match Lsra.Verify.check machine ~original ~allocated:f with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s/%s: verifier rejects %s: %s (%s)" name aname n
              e.Lsra.Verify.what e.Lsra.Verify.where)
        (Program.funcs copy);
      match Lsra_sim.Interp.run machine copy ~input:"zyxwvut" with
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "%s under %s" name aname)
          ref_out o.Lsra_sim.Interp.output
      | Error e -> Alcotest.failf "%s/%s trapped: %s" name aname e)
    Lsra.Allocator.heuristics

let machines =
  [
    ("alpha", Machine.alpha_like);
    ("m6", Machine.small ~int_regs:6 ~float_regs:6 ~int_caller_saved:3 ~float_caller_saved:3 ());
    ("m4", Machine.small ~int_regs:4 ~float_regs:4 ());
  ]

let test_rotation () =
  List.iter
    (fun (mname, m) ->
      List.iter
        (fun n ->
          check (Printf.sprintf "rotation-%d-%s" n mname) m
            (Lsra_workloads.Torture.rotation m ~n ~iters:7))
        [ 2; 3; 5; 9 ])
    machines

let test_holes () =
  List.iter
    (fun (mname, m) ->
      List.iter
        (fun n ->
          check (Printf.sprintf "holes-%d-%s" n mname) m
            (Lsra_workloads.Torture.holes m ~n ~iters:5))
        [ 2; 6 ])
    machines

let test_call_storm () =
  List.iter
    (fun (mname, m) ->
      check ("call-storm-" ^ mname) m
        (Lsra_workloads.Torture.call_storm m ~n:5 ~iters:3))
    machines

let suite =
  [
    Alcotest.test_case "rotation (parallel-move cycles)" `Quick test_rotation;
    Alcotest.test_case "lifetime holes under pressure" `Quick test_holes;
    Alcotest.test_case "call storm" `Quick test_call_storm;
  ]
