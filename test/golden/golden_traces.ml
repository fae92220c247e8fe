(* Golden decision traces: the second-chance allocator's full decision
   stream for three representative functions, and the exact allocator's
   budget trip on one of them, each as text and as JSON lines, diffed
   against the committed expectation by the runtest rule in this
   directory.  Any change to the allocator's decisions or to the JSONL
   rendering shows up as a readable diff; after reviewing it, refresh
   the expectation with

     dune promote test/golden/traces.expected
*)

open Lsra_ir
open Lsra_target
module Trace = Lsra.Trace

let print_stream header evs =
  Printf.printf "==== %s ====\n" header;
  print_string (Trace.to_text evs);
  Printf.printf "---- %s, jsonl ----\n" header;
  print_string (Trace.to_jsonl evs)

let print_trace header machine prog ~fn =
  let trace = Trace.create () in
  ignore
    (Lsra.Allocator.run_program ~trace Lsra.Allocator.default_second_chance
       machine prog);
  print_stream header (Trace.filter_fn fn (Trace.events trace))

let () =
  (match Lsra_workloads.Specbench.find Machine.alpha_like ~scale:1 "wc" with
  | None -> assert false
  | Some case ->
    print_trace "specbench wc, main, alpha-like" Machine.alpha_like
      case.Lsra_workloads.Specbench.program ~fn:"main");
  let mini name mname machine source =
    let prog = Lsra_frontend.Minilang.compile machine source in
    print_trace (Printf.sprintf "minilang %s, main, %s" name mname) machine
      prog ~fn:"main"
  in
  mini "collatz" "small-4" (Machine.small ()) Lsra_workloads.Mini_corpus.collatz;
  (* matmul's helpers take two parameters, which the frontend only
     lowers on machines with enough argument registers *)
  mini "matmul" "alpha-like" Machine.alpha_like
    Lsra_workloads.Mini_corpus.matmul;
  (* The exact allocator under a node budget of 1 trips at once and falls
     back to graph coloring; its Downgrade event carries float fields. *)
  let machine = Machine.small () in
  let prog =
    Lsra_frontend.Minilang.compile machine Lsra_workloads.Mini_corpus.collatz
  in
  let trace = Trace.create () in
  let opts = { Lsra.Optimal.default_options with node_budget = 1 } in
  ignore
    (Lsra.Allocator.run ~trace (Lsra.Allocator.Optimal opts) machine
       (Func.copy (Program.find_exn prog "main")));
  print_stream "minilang collatz, main, small-4, exact, budget 1"
    (Trace.events trace)
