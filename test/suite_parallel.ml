open Lsra_ir
open Lsra_target

(* The persistent domain pool and the deal-and-steal [map_array]:
   results must be exactly [Array.map] regardless of job count, weight
   schedule, or domain timing; exceptions must surface without wedging
   the pool; and whole-program allocation must be bit-identical across
   job counts (the determinism the service and bench gates rely on). *)

let test_map_array_matches () =
  let check ~jobs ~n ~weighted =
    let items = Array.init n (fun i -> i) in
    let f x = (x * 7919) mod 1009 in
    let expect = Array.map f items in
    let got =
      if weighted then
        Lsra.Parallel.map_array ~jobs ~weight:(fun x -> x mod 13) items f
      else Lsra.Parallel.map_array ~jobs items f
    in
    Alcotest.(check (array int))
      (Printf.sprintf "jobs=%d n=%d weighted=%b" jobs n weighted)
      expect got
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          check ~jobs ~n ~weighted:false;
          check ~jobs ~n ~weighted:true)
        [ 0; 1; 3; 17; 256 ])
    [ 1; 2; 4; 8 ]

exception Boom of int

let test_exception_propagation () =
  let items = Array.init 64 (fun i -> i) in
  (match
     Lsra.Parallel.map_array ~jobs:4 items (fun i ->
         if i = 33 then raise (Boom i) else i)
   with
  | _ -> Alcotest.fail "expected the Boom to propagate"
  | exception Boom 33 -> ()
  | exception Boom _ -> Alcotest.fail "wrong payload");
  (* The pool must come back clean after an aborted batch... *)
  let got = Lsra.Parallel.map_array ~jobs:4 items (fun i -> i + 1) in
  Alcotest.(check (array int))
    "pool survives an exception" (Array.map succ items) got;
  (* ...and after an explicit teardown (next call builds a fresh pool). *)
  Lsra.Parallel.teardown ();
  let got = Lsra.Parallel.map_array ~jobs:2 items (fun i -> i * 2) in
  Alcotest.(check (array int))
    "pool rebuilds after teardown"
    (Array.map (fun i -> i * 2) items)
    got

let gen_prog ?(machine = Machine.alpha_like) seed =
  let params =
    { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
  in
  (machine, Lsra_workloads.Gen.program ~params machine)

(* Functions whose consistency solve has nothing to solve report 0
   rounds and the merge keeps the maximum, so some function must still
   solve for the rounds check to bite; both machines have one. *)
let test_fold_stats_deterministic () =
  List.iter
    (fun machine ->
      let machine, prog = gen_prog ~machine 7 in
      let totals jobs =
        let p = Program.copy prog in
        Lsra.Allocator.run_program ~jobs Lsra.Allocator.default_second_chance
          machine p
      in
      let s1 = totals 1 and s4 = totals 4 in
      Alcotest.(check int)
        "spill totals identical across jobs"
        (Lsra.Stats.total_spill s1) (Lsra.Stats.total_spill s4);
      Alcotest.(check int)
        "slot totals identical across jobs" s1.Lsra.Stats.slots
        s4.Lsra.Stats.slots;
      Alcotest.(check int)
        "dataflow rounds identical across jobs" s1.Lsra.Stats.dataflow_rounds
        s4.Lsra.Stats.dataflow_rounds;
      Alcotest.(check bool)
        "some function solves" true
        (s1.Lsra.Stats.dataflow_rounds >= 1))
    [ Machine.alpha_like; Lsra_sim.Sweep.small_8 ]

(* The headline fixture: for every allocator, allocating with 4 domains
   must produce byte-identical programs to allocating with 1. *)
let test_parallel_bit_identical () =
  List.iter
    (fun seed ->
      let machine, prog = gen_prog seed in
      List.iter
        (fun algo ->
          let alloc jobs =
            let p = Program.copy prog in
            ignore (Lsra.Allocator.run_program ~jobs algo machine p);
            Lsra_text.Ir_text.to_string p
          in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: -j4 = -j1" (Lsra.Allocator.name algo)
               seed)
            (alloc 1) (alloc 4))
        Lsra.Allocator.all)
    [ 1; 42; 1234 ]

let suite =
  [
    Alcotest.test_case "map_array matches Array.map" `Quick
      test_map_array_matches;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick
      test_exception_propagation;
    Alcotest.test_case "fold_stats deterministic across jobs" `Quick
      test_fold_stats_deterministic;
    Alcotest.test_case "allocation bit-identical at -j4" `Quick
      test_parallel_bit_identical;
  ]
