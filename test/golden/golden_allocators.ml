(* Golden allocations: the decision trace, the non-timing counters and
   the allocated IR text of every allocator in [Allocator.all], on every
   Minilang corpus program and four generated programs, on alpha-like
   and small-8. Allocation alone runs (no pre/post passes), so the text
   is exactly what [Allocator.run_program] leaves behind.

   The exact allocator takes one of three paths per function; each
   program prints which, and three pinned runs force one of each: a
   node budget of 1 (budget trip: Downgrade, then graph coloring), a
   function where the best heuristic rung is adopted verbatim, and one
   where the search's own solution is emitted. After reviewing a diff,
   refresh with

     dune promote test/golden/allocators.expected
*)

open Lsra_ir
open Lsra_target
module Trace = Lsra.Trace

let machines =
  [ ("alpha-like", Machine.alpha_like); ("small-8", Lsra_sim.Sweep.small_8) ]

(* Which of the exact allocator's paths function [fn] took. The
   Downgrade event is pipeline-level (it precedes the fallback's Fn
   section), so it is matched by name over the whole stream. *)
let optimal_path events fn =
  if
    List.exists
      (function Trace.Downgrade { req; _ } -> req = fn | _ -> false)
      events
  then "downgraded to gc"
  else if
    List.exists
      (function
        | Trace.Assign { reason = Trace.Exact; _ } -> true | _ -> false)
      (Trace.filter_fn fn events)
  then "own solution"
  else "adopted a rung"

let print_counters (s : Lsra.Stats.t) =
  Printf.printf
    "-- evict %d/%d/%d resolve %d/%d/%d slots %d downgrades %d nodes %d \
     proven %d\n"
    s.evict_loads s.evict_stores s.evict_moves s.resolve_loads
    s.resolve_stores s.resolve_moves s.slots s.downgrades s.opt_nodes
    s.opt_proven

let print_run header algo machine prog =
  let p = Program.copy prog in
  let trace = Trace.create () in
  let s = Lsra.Allocator.run_program ~trace algo machine p in
  Printf.printf "==== %s, %s ====\n" header (Lsra.Allocator.short_name algo);
  print_counters s;
  let events = Trace.events trace in
  (match algo with
  | Lsra.Allocator.Optimal _ ->
    List.iter
      (fun (name, _) ->
        Printf.printf "-- optimal %s: %s\n" name (optimal_path events name))
      (Program.funcs p)
  | _ -> ());
  print_string (Trace.to_text events);
  print_string (Lsra_text.Ir_text.to_string p)

let gen_program machine seed =
  (* The shapes of golden_options.ml: default, then call-dense. *)
  let base =
    if seed <= 10 then
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    else Lsra_workloads.Gen.hostile_params ~seed
  in
  Lsra_workloads.Gen.program
    ~params:
      {
        base with
        Lsra_workloads.Gen.n_funcs = 2;
        n_stmts = 4;
        max_depth = 1;
        n_temps = 8;
      }
    machine

(* One function, one exact-allocator run with the given node budget; the
   path it took must be [expect], or the pin has lost its point. *)
let pin_optimal header ~node_budget ~expect machine prog fn =
  let f = Func.copy (Program.find_exn prog fn) in
  let trace = Trace.create () in
  let opts = { Lsra.Optimal.default_options with node_budget } in
  let s = Lsra.Allocator.run ~trace (Lsra.Allocator.Optimal opts) machine f in
  let events = Trace.events trace in
  let path = optimal_path events fn in
  if path <> expect then
    failwith (Printf.sprintf "%s: expected %s, got %s" header expect path);
  Printf.printf "==== pinned: %s, %s, budget %d: %s ====\n" header fn
    node_budget path;
  print_counters s;
  print_string (Trace.to_text events);
  print_string
    (Lsra_text.Ir_text.to_string (Program.create ~main:fn [ (fn, f) ]))

let () =
  List.iter
    (fun (mname, machine) ->
      let programs =
        List.filter_map
          (fun (e : Lsra_workloads.Mini_corpus.entry) ->
            let header = Printf.sprintf "minilang %s, %s" e.mname mname in
            match Lsra_frontend.Minilang.compile machine e.source with
            | prog -> Some (header, prog)
            | exception Lsra_frontend.Lower.Error msg ->
              Printf.printf "==== %s ====\nfrontend rejected: %s\n" header msg;
              None)
          Lsra_workloads.Mini_corpus.all
        @ List.map
            (fun seed ->
              ( Printf.sprintf "gen seed %d, %s" seed mname,
                gen_program machine seed ))
            [ 1; 2; 11; 12 ]
      in
      List.iter
        (fun (header, prog) ->
          List.iter
            (fun algo -> print_run header algo machine prog)
            Lsra.Allocator.all)
        programs)
    machines;
  (* The pins. Seed 55 on the 4-register machine is suite_optimal's
     frozen fixture, where the search strictly beats every rung. *)
  let tiny4 = Machine.small ~int_regs:4 ~float_regs:4 () in
  let fixture =
    Lsra_workloads.Gen.program
      ~params:
        {
          Lsra_workloads.Gen.default_params with
          Lsra_workloads.Gen.seed = 55;
          n_temps = 6 + (55 mod 13);
          n_stmts = 8 + (55 mod 17);
          n_funcs = 1;
        }
      tiny4
  in
  let budget = Lsra.Optimal.default_options.node_budget in
  pin_optimal "gen seed 55, tiny-4" ~node_budget:1 ~expect:"downgraded to gc"
    tiny4 fixture "main";
  pin_optimal "gen seed 55, tiny-4" ~node_budget:budget ~expect:"own solution"
    tiny4 fixture "main";
  pin_optimal "gen seed 1, small-8" ~node_budget:budget
    ~expect:"adopted a rung" Lsra_sim.Sweep.small_8
    (gen_program Lsra_sim.Sweep.small_8 1)
    "main"
