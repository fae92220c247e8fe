open Lsra_ir
open Lsra_target

(* The exact allocator (Lsra.Optimal) is an optimality oracle: on any
   function it solves within budget it must spill no more than every
   heuristic, and its output must survive the verifier and the
   differential-execution oracle like any other allocator's. These
   tests pin both halves, plus the honesty of the budget escape hatch
   (a blown budget must surface as a recorded downgrade, never as a
   silently weaker "optimum"). *)

let machines =
  [
    ("small-8", Lsra_sim.Sweep.small_8);
    ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
  ]

(* Generous search budget: the generated programs are small, and a
   budget skip would silently weaken the property. *)
let opts =
  { Lsra.Optimal.default_options with Lsra.Optimal.node_budget = 500_000 }

let exact = Lsra.Allocator.Optimal opts

let gen_prog machine seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 6 + (seed mod 13);
      n_stmts = 8 + (seed mod 17);
      n_funcs = 1 + (seed mod 2);
    }
  in
  Lsra_workloads.Gen.program ~params machine

(* Property: per function, exact spill count <= every heuristic's; per
   program, the exact allocation passes differential execution (which
   runs the abstract verifier and the trace replay-check inside). *)
let run_one ~mname machine seed =
  let prog = gen_prog machine seed in
  List.iter
    (fun (fname, f) ->
      let exact_stats = Lsra.Allocator.run exact machine (Func.copy f) in
      (* Branch and bound is exponential in the worst case; a blown
         budget (a downgrade) on a generated function is a skip, not a
         failure (the frozen fixture below pins that the search does win).
         The whole-program oracle check still runs. *)
      if exact_stats.Lsra.Stats.downgrades = 0 then begin
        let exact = Lsra.Stats.total_spill exact_stats in
        List.iter
          (fun algo ->
            let hs = Lsra.Allocator.run algo machine (Func.copy f) in
            if Lsra.Stats.total_spill hs < exact then
              QCheck.Test.fail_reportf
                "[%s seed %d] %s beats the optimum on %s: %d < %d" mname seed
                (Lsra.Allocator.short_name algo)
                fname
                (Lsra.Stats.total_spill hs)
                exact)
          Lsra.Allocator.heuristics
      end)
    (Program.funcs prog);
  match Lsra_sim.Diffexec.check ~input:"optimal" machine exact prog with
  | Ok () -> true
  | Error d ->
    QCheck.Test.fail_reportf "[%s seed %d] %s" mname seed
      (Lsra_sim.Diffexec.divergence_to_string d)

let optimality_tests =
  List.map
    (fun (mname, machine) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "exact <= every heuristic on %s" mname)
        ~count:12
        QCheck.(int_range 0 100_000)
        (fun seed -> run_one ~mname machine seed))
    machines

(* Frozen fixture (found by seed search, then pinned): a generated
   function on the 4-register machine where the exact optimum strictly
   beats both graph coloring and second-chance binpacking. Guards
   against the search regressing into "optimal = best heuristic". *)
let test_exact_beats_heuristics () =
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let seed = 55 in
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 6 + (seed mod 13);
      n_stmts = 8 + (seed mod 17);
      n_funcs = 1;
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  let f =
    match Program.funcs prog with
    | [ (_, f) ] -> f
    | fs -> Alcotest.failf "expected one function, got %d" (List.length fs)
  in
  let exact_stats = Lsra.Allocator.run exact machine (Func.copy f) in
  let exact = Lsra.Stats.total_spill exact_stats in
  Alcotest.(check int) "pinned optimal spill count" 31 exact;
  Alcotest.(check int) "proven optimal" 1 exact_stats.Lsra.Stats.opt_proven;
  Alcotest.(check int) "no downgrade" 0 exact_stats.Lsra.Stats.downgrades;
  let spill_of algo =
    Lsra.Stats.total_spill (Lsra.Allocator.run algo machine (Func.copy f))
  in
  let gc = spill_of Lsra.Allocator.Graph_coloring in
  let bp = spill_of Lsra.Allocator.default_second_chance in
  Alcotest.(check bool)
    (Printf.sprintf "beats coloring (%d < %d)" exact gc)
    true (exact < gc);
  Alcotest.(check bool)
    (Printf.sprintf "beats binpack (%d < %d)" exact bp)
    true (exact < bp)

(* A blown budget must degrade to graph coloring and say so: one
   recorded downgrade per function, a pipeline-level Trace.Downgrade
   event naming optimal -> gc, and output that still verifies. An
   instruction gate of 0 forces the path deterministically. *)
let test_budget_downgrade () =
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let prog = gen_prog machine 7 in
  let starved =
    { Lsra.Optimal.default_options with Lsra.Optimal.max_instrs = 0 }
  in
  let trace = Lsra.Trace.create () in
  let n_funcs = List.length (Program.funcs prog) in
  let downgrades = ref 0 in
  List.iter
    (fun (fname, f) ->
      let original = Func.copy f in
      let stats =
        Lsra.Allocator.run ~trace
          (Lsra.Allocator.Optimal starved)
          machine f
      in
      downgrades := !downgrades + stats.Lsra.Stats.downgrades;
      match Lsra.Verify.check machine ~original ~allocated:f with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "downgraded output rejected on %s at '%s': %s" fname
          e.Lsra.Verify.where e.Lsra.Verify.what)
    (Program.funcs prog);
  Alcotest.(check int) "one downgrade per function" n_funcs !downgrades;
  let downgrade_events =
    List.filter
      (function
        | Lsra.Trace.Downgrade { from_algo = "optimal"; to_algo = "gc"; _ }
          ->
          true
        | _ -> false)
      (Lsra.Trace.events trace)
  in
  Alcotest.(check int) "one Downgrade event per function" n_funcs
    (List.length downgrade_events)

(* Within budget nothing downgrades, and the stats carry the search's
   own counters (nodes visited, functions proven optimal). Seed 0
   generates a single function the search solves comfortably. *)
let test_proven_counters () =
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let prog = gen_prog machine 0 in
  List.iter
    (fun (_, f) ->
      let stats = Lsra.Allocator.run exact machine f in
      Alcotest.(check int) "proven" 1 stats.Lsra.Stats.opt_proven;
      Alcotest.(check bool) "nodes counted" true
        (stats.Lsra.Stats.opt_nodes > 0);
      Alcotest.(check int) "no downgrade" 0 stats.Lsra.Stats.downgrades)
    (Program.funcs prog)

(* [Allocator.run] measures each call exactly once, whichever allocator
   it dispatches to: the GC words it reports equal a [Gc.quick_stat]
   delta taken around the call — also when the exact allocator adopts a
   heuristic rung, emits its own solution or falls back to coloring on a
   blown budget — and the call's time is recorded. [Gc.quick_stat]
   counts minor words a minor heap at a time, so an empty minor heap at
   the start keeps the few words allocated before the call's own
   snapshot from crossing a collection. *)
let test_cost_counted_once () =
  let m = Machine.alpha_like in
  let blown =
    Lsra.Allocator.Optimal
      { Lsra.Optimal.default_options with Lsra.Optimal.node_budget = 1 }
  in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      List.iter
        (fun (fname, f) ->
          List.iter
            (fun algo ->
              let f = Func.copy f in
              Gc.minor ();
              let g0 = Gc.quick_stat () in
              let s = Lsra.Allocator.run algo m f in
              let g1 = Gc.quick_stat () in
              let what =
                String.concat "/"
                  [ case.name; fname; Lsra.Allocator.short_name algo ]
              in
              Alcotest.(check (float 0.)) (what ^ " minor words")
                (g1.Gc.minor_words -. g0.Gc.minor_words)
                s.Lsra.Stats.minor_words;
              Alcotest.(check bool) (what ^ " timed") true (s.alloc_time > 0.);
              if algo == blown then
                Alcotest.(check int) (what ^ " budget blown") 1 s.downgrades)
            (Lsra.Allocator.all @ [ blown ]))
        (Program.funcs case.Lsra_workloads.Specbench.program))
    (Lsra_workloads.Specbench.all m ~scale:1)

(* The warm start skips a rung that raises its own failure exception,
   leaving the incumbent to the others, but lets Out_of_memory through
   rather than pass it off as a failed rung. *)
let test_failing_rungs () =
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let f = snd (List.hd (Program.funcs (gen_prog machine 0))) in
  let failed = function Lsra.Poletto.Out_of_registers _ -> true | _ -> false in
  let gc trace f = Lsra.Allocator.(run ?trace Graph_coloring) machine f in
  let run_exact rungs =
    let f = Func.copy f in
    Lsra.Optimal.run_exact opts None (Lsra_analysis.Liveness.compute f) ~rungs
      ~failed machine f
  in
  let fails _ _ = raise (Lsra.Poletto.Out_of_registers "injected") in
  let s = run_exact [ fails; gc ] in
  Alcotest.(check int) "proven past a failed rung" 1 s.Lsra.Stats.opt_proven;
  Alcotest.(check bool) "no worse than the rung left" true
    Lsra.Stats.(total_spill s <= total_spill (gc None (Func.copy f)));
  Alcotest.check_raises "Out_of_memory propagates" Out_of_memory (fun () ->
      ignore (run_exact [ gc; (fun _ _ -> raise Out_of_memory) ]))

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false) optimality_tests
  @ [
      Alcotest.test_case "fixture: exact strictly beats gc and binpack"
        `Quick test_exact_beats_heuristics;
      Alcotest.test_case "budget blowout downgrades honestly" `Quick
        test_budget_downgrade;
      Alcotest.test_case "in-budget search proves optimality" `Quick
        test_proven_counters;
      Alcotest.test_case "cost is counted once on every path" `Quick
        test_cost_counted_once;
      Alcotest.test_case "a failed rung is skipped, an OOM propagates"
        `Quick test_failing_rungs;
    ]
