(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§3) on the synthetic workload suite.

     table1   — dynamic instruction counts and modelled run times
     table2   — % of dynamic instructions that are spill code
     figure3  — spill-code composition (evict/resolve × load/store/move)
     table3   — allocation (compile) time vs. candidate count
     twopass  — §3.1: two-pass binpacking vs. second chance on wc/eqntott
     ablation — §2.5/§2.6 options: early second chance, move opt,
                consistency dataflow variants
     bechamel — statistically robust allocation-time microbenchmarks
                (one Bechamel test per Table-3 module and per allocator)

   Run with no argument for everything except `bechamel`. *)

open Lsra_ir
open Lsra_target

let machine = Machine.alpha_like

(* A malformed environment override is a user error, not a signal to
   quietly fall back to a default and benchmark the wrong configuration. *)
let env_failure name value expected =
  Printf.eprintf "bench: malformed %s=%S (expected %s)\n" name value expected;
  exit 2

let scale =
  let name = "LSRA_BENCH_SCALE" in
  match Sys.getenv_opt name with
  | None -> 6
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> env_failure name s "an integer >= 1")

(* Domains used for the parallel-allocation measurements (perfdump, and
   any table that honours it). Defaults to what the host can actually run
   concurrently: extra domains on an oversubscribed machine make the
   stop-the-world minor collections dramatically more expensive. 0 means
   "pick for this host". *)
let jobs =
  let name = "LSRA_BENCH_JOBS" in
  match Sys.getenv_opt name with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some 0 -> Domain.recommended_domain_count ()
    | Some _ | None -> env_failure name s "an integer >= 0")

(* Artifact directory for the machine-readable dumps (BENCH_alloc.json,
   BENCH_service.json): LSRA_BENCH_OUT when set (created if missing), so
   CI can archive artifacts from any working directory; cwd otherwise. *)
let bench_out_path file =
  match Sys.getenv_opt "LSRA_BENCH_OUT" with
  | None | Some "" -> file
  | Some dir ->
    let rec mkdirs d =
      if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        try Unix.mkdir d 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      end
    in
    mkdirs dir;
    Filename.concat dir file

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

type measured = {
  outcome : Lsra_sim.Interp.outcome;
  stats : Lsra.Stats.t;
}

let compile_and_run algo (case : Lsra_workloads.Specbench.case) =
  let prog = Program.copy case.Lsra_workloads.Specbench.program in
  let stats = Lsra.Allocator.pipeline algo machine prog in
  match
    Lsra_sim.Interp.run machine prog ~input:case.Lsra_workloads.Specbench.input
  with
  | Ok outcome -> { outcome; stats }
  | Error e ->
    Printf.eprintf "FATAL: %s under %s trapped: %s\n%!"
      case.Lsra_workloads.Specbench.name
      (Lsra.Allocator.name algo)
      e;
    exit 1

let binpack = Lsra.Allocator.default_second_chance
let coloring = Lsra.Allocator.Graph_coloring

let cases () = Lsra_workloads.Specbench.all machine ~scale

(* The paper's run-time column: we charge the Cycles model and report
   seconds at a nominal 500 MHz, the clock of a period Alpha 21164. *)
let seconds_of_cycles c = float_of_int c /. 500.0e6

let hrule width = print_endline (String.make width '-')

(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline "Table 1: dynamic instruction counts and run times";
  print_endline
    "(binpack = second-chance binpacking, gc = graph coloring; ratios > 1";
  print_endline " mean the linear-scan executable is slower)";
  hrule 86;
  Printf.printf "%-10s %14s %14s %7s %10s %10s %7s\n" "benchmark" "binpack"
    "gc" "ratio" "bp run(s)" "gc run(s)" "ratio";
  hrule 86;
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let bp = compile_and_run binpack case in
      let gc = compile_and_run coloring case in
      let ratio =
        float_of_int bp.outcome.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
        /. float_of_int gc.outcome.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
      in
      let bt = seconds_of_cycles bp.outcome.Lsra_sim.Interp.counts.cycles in
      let gt = seconds_of_cycles gc.outcome.Lsra_sim.Interp.counts.cycles in
      Printf.printf "%-10s %14d %14d %7.3f %10.6f %10.6f %7.3f\n"
        case.Lsra_workloads.Specbench.name
        bp.outcome.Lsra_sim.Interp.counts.total
        gc.outcome.Lsra_sim.Interp.counts.total ratio bt gt (bt /. gt))
    (cases ());
  hrule 86;
  print_newline ()

let table2 () =
  print_endline
    "Table 2: percentage of dynamic instructions due to spill code";
  hrule 46;
  Printf.printf "%-10s %16s %16s\n" "benchmark" "binpack" "gc";
  hrule 46;
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let pct m =
        let c = m.outcome.Lsra_sim.Interp.counts in
        let s = Lsra_sim.Interp.spill_total c in
        if s = 0 then "0%"
        else
          Printf.sprintf "%.3f%%"
            (100.0 *. float_of_int s /. float_of_int c.Lsra_sim.Interp.total)
      in
      let bp = compile_and_run binpack case in
      let gc = compile_and_run coloring case in
      Printf.printf "%-10s %16s %16s\n" case.Lsra_workloads.Specbench.name
        (pct bp) (pct gc))
    (cases ());
  hrule 46;
  print_newline ()

let figure3 () =
  print_endline
    "Figure 3: composition of executed spill code, normalised to the";
  print_endline
    "total under binpacking (-b = binpacking, -c = coloring); benchmarks";
  print_endline "with no spill code under either allocator are omitted";
  hrule 92;
  Printf.printf "%-12s %8s %8s %8s %8s %8s %8s %8s\n" "bench-scheme"
    "evict-ld" "evict-st" "evict-mv" "res-ld" "res-st" "res-mv" "total";
  hrule 92;
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let bp = compile_and_run binpack case in
      let gc = compile_and_run coloring case in
      let bp_total =
        Lsra_sim.Interp.spill_total bp.outcome.Lsra_sim.Interp.counts
      in
      let gc_total =
        Lsra_sim.Interp.spill_total gc.outcome.Lsra_sim.Interp.counts
      in
      if bp_total > 0 || gc_total > 0 then begin
        let base = float_of_int (max bp_total 1) in
        let row suffix (c : Lsra_sim.Interp.counts) =
          let n x = float_of_int x /. base in
          Printf.printf "%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n"
            (case.Lsra_workloads.Specbench.name ^ suffix)
            (n c.evict_loads) (n c.evict_stores) (n c.evict_moves)
            (n c.resolve_loads) (n c.resolve_stores) (n c.resolve_moves)
            (n (Lsra_sim.Interp.spill_total c))
        in
        row "-b" bp.outcome.Lsra_sim.Interp.counts;
        row "-c" gc.outcome.Lsra_sim.Interp.counts
      end)
    (cases ());
  hrule 92;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Wall clock, not [Sys.time]: CPU time sums over domains and would hide
   any parallel speedup. The copy the allocator mutates is made outside
   the timed region, so only allocation is measured. *)
let best_of_5_alloc prog run =
  let best = ref infinity in
  for _ = 1 to 5 do
    let p = Program.copy prog in
    let t0 = Unix.gettimeofday () in
    run p;
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let table3 () =
  print_endline "Table 3: allocation time (seconds, best of 5 runs)";
  print_endline
    "(candidates and interference-graph edges are per procedure, summed";
  print_endline " over all coloring iterations, as in the paper;";
  print_endline
    " rds = worklist dataflow rounds, passes = binpack per-pass wall ms)";
  hrule 78;
  Printf.printf "%-10s %10s %12s %12s %12s %8s %4s\n" "module" "cands"
    "edges" "coloring" "binpack" "gc/bp" "rds";
  hrule 78;
  List.iter
    (fun shape ->
      let prog = Lsra_workloads.Pressure.build machine shape in
      let gc_stats = ref (Lsra.Stats.create ()) in
      let t_gc =
        best_of_5_alloc prog (fun p ->
            gc_stats := Lsra.Coloring.run_program machine p)
      in
      let bp_stats = ref (Lsra.Stats.create ()) in
      let t_bp =
        best_of_5_alloc prog (fun p ->
            bp_stats := Lsra.Second_chance.run_program machine p)
      in
      let nproc = shape.Lsra_workloads.Pressure.procs in
      Printf.printf "%-10s %10d %12d %12.4f %12.4f %8.2f %4d\n"
        shape.Lsra_workloads.Pressure.sname
        shape.Lsra_workloads.Pressure.candidates
        (!gc_stats.Lsra.Stats.interference_edges / nproc)
        t_gc t_bp (t_gc /. t_bp) !bp_stats.Lsra.Stats.dataflow_rounds;
      Printf.printf
        "%-10s   passes(ms): liveness %.2f, lifetime %.2f, scan %.2f, \
         resolution %.2f\n"
        ""
        (1e3 *. !bp_stats.Lsra.Stats.time_liveness)
        (1e3 *. !bp_stats.Lsra.Stats.time_lifetime)
        (1e3 *. !bp_stats.Lsra.Stats.time_scan)
        (1e3 *. !bp_stats.Lsra.Stats.time_resolution))
    [
      Lsra_workloads.Pressure.cvrin;
      Lsra_workloads.Pressure.twldrv;
      Lsra_workloads.Pressure.fpppp;
    ];
  hrule 78;
  print_endline "sweep: single procedure, growing candidate count";
  hrule 78;
  Printf.printf "%-10s %10s %12s %12s %8s\n" "cands" "window" "coloring"
    "binpack" "gc/bp";
  List.iter
    (fun (candidates, window, clique) ->
      let prog =
        Program.create ~main:"p0"
          [
            ( "p0",
              Lsra_workloads.Pressure.proc machine ~name:"p0" ~candidates
                ~window ~clique );
          ]
      in
      let t_gc =
        best_of_5_alloc prog (fun p ->
            ignore (Lsra.Coloring.run_program machine p))
      in
      let t_bp =
        best_of_5_alloc prog (fun p ->
            ignore (Lsra.Second_chance.run_program machine p))
      in
      Printf.printf "%-10d %10d %12.4f %12.4f %8.2f\n" candidates window t_gc
        t_bp (t_gc /. t_bp))
    [
      (125, 5, 0);
      (250, 5, 0);
      (500, 6, 0);
      (1000, 8, 0);
      (2000, 10, 40);
      (4000, 12, 44);
      (8000, 16, 48);
    ];
  hrule 78;
  print_newline ()

(* ------------------------------------------------------------------ *)

let twopass () =
  print_endline "Two-pass binpacking vs. second chance (paper section 3.1):";
  print_endline
    "wc degrades badly without second chance; eqntott barely changes";
  hrule 70;
  Printf.printf "%-10s %14s %14s %9s\n" "benchmark" "second-chance"
    "two-pass" "tp/sc";
  hrule 70;
  List.iter
    (fun name ->
      match Lsra_workloads.Specbench.find machine ~scale name with
      | None -> ()
      | Some case ->
        let sc = compile_and_run binpack case in
        let tp = compile_and_run Lsra.Allocator.Two_pass case in
        Printf.printf "%-10s %14d %14d %9.3f\n" name
          sc.outcome.Lsra_sim.Interp.counts.total
          tp.outcome.Lsra_sim.Interp.counts.total
          (float_of_int tp.outcome.Lsra_sim.Interp.counts.total
          /. float_of_int sc.outcome.Lsra_sim.Interp.counts.total))
    [ "wc"; "eqntott" ];
  hrule 70;
  print_newline ()

let ablation () =
  print_endline "Ablations: second-chance options (dynamic instructions)";
  hrule 96;
  Printf.printf "%-10s %12s %12s %12s %12s %12s %12s\n" "benchmark" "full"
    "no-esc" "no-moveopt" "conservative" "cleanup" "poletto";
  hrule 96;
  let mk ~esc ~mo ~cons =
    Lsra.Allocator.Second_chance
      {
        Lsra.Binpack.early_second_chance = esc;
        move_opt = mo;
        consistency = cons;
      }
  in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let t algo =
        (compile_and_run algo case).outcome.Lsra_sim.Interp.counts.total
      in
      let cleaned =
        let prog = Program.copy case.Lsra_workloads.Specbench.program in
        ignore
          (Lsra.Allocator.pipeline
             ~passes:[ Lsra.Passes.Dce; Lsra.Passes.Motion; Lsra.Passes.Peephole ]
             binpack machine prog);
        match
          Lsra_sim.Interp.run machine prog
            ~input:case.Lsra_workloads.Specbench.input
        with
        | Ok o -> o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
        | Error _ -> -1
      in
      Printf.printf "%-10s %12d %12d %12d %12d %12d %12d\n"
        case.Lsra_workloads.Specbench.name
        (t (mk ~esc:true ~mo:true ~cons:Lsra.Binpack.Iterative))
        (t (mk ~esc:false ~mo:true ~cons:Lsra.Binpack.Iterative))
        (t (mk ~esc:true ~mo:false ~cons:Lsra.Binpack.Iterative))
        (t (mk ~esc:true ~mo:true ~cons:Lsra.Binpack.Conservative))
        cleaned
        (t Lsra.Allocator.Poletto))
    (cases ());
  hrule 96;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* Layout sensitivity: the linear scan's quality depends on the block
   layout it walks. Compare resolution traffic with the builder's layout,
   an adversarially reversed one, and RPO, across random programs. *)
let layout () =
  print_endline
    "Layout ablation: static resolution instructions inserted by the";
  print_endline
    "linear scan under three block layouts (sum over 40 random programs)";
  hrule 60;
  let m = Machine.small ~int_regs:6 ~float_regs:6 () in
  let totals = Array.make 3 0 in
  for seed = 0 to 39 do
    let params =
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    in
    let prog = Lsra_workloads.Gen.program ~params m in
    let resolution f =
      let f = Func.copy f in
      let stats = Lsra.Second_chance.run m f in
      stats.Lsra.Stats.resolve_loads + stats.Lsra.Stats.resolve_stores
      + stats.Lsra.Stats.resolve_moves
    in
    List.iter
      (fun (_, f) ->
        totals.(0) <- totals.(0) + resolution f;
        let rev = Func.copy f in
        let cfg = Func.cfg rev in
        (match Array.to_list (Cfg.blocks cfg) |> List.map Block.label with
        | entry :: rest -> Cfg.reorder cfg (entry :: List.rev rest)
        | [] -> ());
        totals.(1) <- totals.(1) + resolution rev;
        let rpo = Func.copy rev in
        Lsra.Layout.apply_rpo rpo;
        totals.(2) <- totals.(2) + resolution rpo)
      (Program.funcs prog)
  done;
  Printf.printf "%-24s %10d
" "builder layout" totals.(0);
  Printf.printf "%-24s %10d
" "reversed (adversarial)" totals.(1);
  Printf.printf "%-24s %10d
" "reverse postorder" totals.(2);
  hrule 60;
  print_newline ()

(* Frame compaction: slots before/after Slots.run across the workloads. *)
let frames () =
  print_endline "Frame compaction: spill slots per benchmark (binpack on a";
  print_endline "small machine to force spills)";
  hrule 60;
  Printf.printf "%-12s %10s %10s %10s
" "benchmark" "slots" "compacted"
    "saved";
  hrule 60;
  let m =
    Machine.small ~int_regs:7 ~float_regs:7 ~int_caller_saved:4
      ~float_caller_saved:4 ()
  in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let prog = Program.copy case.Lsra_workloads.Specbench.program in
      (* Slots as a managed pipeline pass; its savings surface in the
         returned stats' [frame_saved]. *)
      let stats =
        Lsra.Allocator.pipeline
          ~passes:(Lsra.Passes.Slots :: Lsra.Passes.default)
          binpack m prog
      in
      let after =
        List.fold_left (fun acc (_, f) -> acc + Func.n_slots f) 0
          (Program.funcs prog)
      in
      let saved = stats.Lsra.Stats.frame_saved in
      if after + saved > 0 then
        Printf.printf "%-12s %10d %10d %10d
"
          case.Lsra_workloads.Specbench.name (after + saved) after saved)
    (Lsra_workloads.Specbench.all m ~scale:1);
  hrule 60;
  print_newline ()

(* The Minilang corpus through both principal allocators: the same
   quality comparison as Table 1, but on code arriving through a real
   frontend instead of the synthetic builders. *)
let corpus () =
  print_endline "Minilang corpus: dynamic instructions, binpack vs coloring";
  hrule 66;
  Printf.printf "%-12s %14s %14s %8s\n" "program" "binpack" "gc" "ratio";
  hrule 66;
  List.iter
    (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
      let prog = Lsra_frontend.Minilang.compile machine source in
      let run algo =
        let p = Program.copy prog in
        ignore (Lsra.Allocator.pipeline algo machine p);
        match Lsra_sim.Interp.run machine p ~input:minput with
        | Ok o -> o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
        | Error e -> failwith (mname ^ ": " ^ e)
      in
      let bp = run binpack and gc = run coloring in
      Printf.printf "%-12s %14d %14d %8.3f\n" mname bp gc
        (float_of_int bp /. float_of_int gc))
    Lsra_workloads.Mini_corpus.all;
  hrule 66;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* optgap: how far each heuristic lands from the exact branch-and-bound
   optimum (Lsra.Optimal), in static spill instructions, over every
   corpus function — on the alpha machine and on a register-starved
   small machine where the gaps actually open up. Functions whose
   search exhausts the node budget (`bench optgap [NODES]`, default
   Optimal.default_options) or the instruction gate are counted and
   skipped: a downgraded "optimum" would poison the statistics. Every
   exact allocation is also pushed through the differential-execution
   oracle, which verifies and trace-checks it. Writes
   BENCH_optgap.json; exits 4 if any heuristic ever beats the optimum
   (an optimality bug by construction) or the oracle diverges. *)
let optgap () =
  let node_budget =
    if Array.length Sys.argv <= 2 then
      Lsra.Optimal.default_options.Lsra.Optimal.node_budget
    else
      match int_of_string_opt Sys.argv.(2) with
      | Some n when n > 0 -> n
      | Some _ | None ->
        Printf.eprintf
          "bench optgap: malformed node budget %S (expected an integer > 0)\n"
          Sys.argv.(2);
        exit 2
  in
  let opts = { Lsra.Optimal.default_options with Lsra.Optimal.node_budget } in
  let heuristics =
    [
      ("gc", coloring);
      ("binpack", binpack);
      ("twopass", Lsra.Allocator.Two_pass);
      ("poletto", Lsra.Allocator.Poletto);
    ]
  in
  let machines =
    (* The same register-starved machine the differential fuzzer uses:
       enough argument registers for the corpus conventions, few enough
       total for real spill pressure (the alpha rarely spills at all). *)
    [
      ("alpha", machine);
      ( "small-8",
        Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
          ~float_caller_saved:4 () );
    ]
  in
  let corpus_of m =
    List.map
      (fun (case : Lsra_workloads.Specbench.case) ->
        ( "spec:" ^ case.Lsra_workloads.Specbench.name,
          case.Lsra_workloads.Specbench.program,
          case.Lsra_workloads.Specbench.input ))
      (Lsra_workloads.Specbench.all m ~scale)
    @ List.filter_map
        (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
          (* A small machine may not support a program's calling
             convention; skip those entries there. *)
          match Lsra_frontend.Minilang.compile m source with
          | prog -> Some ("mini:" ^ mname, prog, minput)
          | exception Lsra_frontend.Lower.Error _ -> None)
        Lsra_workloads.Mini_corpus.all
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"bench\": \"optgap\",\n  \"scale\": %d,\n  \"node_budget\": %d,\n\
    \  \"machines\": [" scale node_budget;
  let violations = ref 0 and divergences = ref 0 in
  List.iteri
    (fun mi (mname, m) ->
      if mi > 0 then Buffer.add_string buf ",";
      Printf.printf "optgap on %s (node budget %d):\n" mname node_budget;
      let cases = corpus_of m in
      (* gaps.(h) collects (heuristic spill - exact spill) per measured
         function, one slot per heuristic, measurement order. *)
      let gaps = Array.make (List.length heuristics) [] in
      let measured = ref 0 and skipped = ref 0 in
      List.iter
        (fun (_pname, prog, input) ->
          List.iter
            (fun (_fname, f) ->
              match
                Lsra.Optimal.run_exact ~opts m (Lsra_ir.Func.copy f)
              with
              | exception Lsra.Optimal.Budget_exceeded _ -> incr skipped
              | exact_stats ->
                let exact = Lsra.Stats.total_spill exact_stats in
                incr measured;
                List.iteri
                  (fun hi (hname, algo) ->
                    let st =
                      Lsra.Allocator.run algo m (Lsra_ir.Func.copy f)
                    in
                    let gap = Lsra.Stats.total_spill st - exact in
                    if gap < 0 then begin
                      incr violations;
                      Printf.printf
                        "  VIOLATION: %s beats optimal on %s/%s (%d < %d)\n"
                        hname _pname _fname
                        (Lsra.Stats.total_spill st)
                        exact
                    end;
                    gaps.(hi) <- gap :: gaps.(hi))
                  heuristics)
            (Program.funcs prog);
          (* The exact allocator's output must survive the strongest
             oracle we have: differential execution with the abstract
             verifier and trace replay-check inside. *)
          match
            Lsra_sim.Diffexec.check ~input m
              (Lsra.Allocator.Optimal opts)
              prog
          with
          | Ok () -> ()
          | Error d ->
            incr divergences;
            Printf.printf "  DIVERGENCE on %s: %s\n" _pname
              (Lsra_sim.Diffexec.divergence_to_string d))
        cases;
      Printf.printf
        "  %d function(s) solved to optimality, %d skipped (over budget)\n"
        !measured !skipped;
      Printf.bprintf buf
        "\n    { \"machine\": %S, \"functions\": %d, \"skipped_budget\": %d,\n\
        \      \"allocators\": [" mname !measured !skipped;
      Printf.printf "  %-10s %8s %8s %8s %8s %8s\n" "allocator" "mean"
        "p95" "max" "ties" "beats";
      List.iteri
        (fun hi (hname, _) ->
          let g = Array.of_list (List.rev gaps.(hi)) in
          Array.sort compare g;
          let n = Array.length g in
          let mean =
            if n = 0 then 0.0
            else
              float_of_int (Array.fold_left ( + ) 0 g) /. float_of_int n
          in
          let p95 = if n = 0 then 0 else g.(min (n - 1) (n * 95 / 100)) in
          let maxg = if n = 0 then 0 else g.(n - 1) in
          let ties = Array.fold_left (fun a x -> if x = 0 then a + 1 else a) 0 g in
          let beats =
            Array.fold_left (fun a x -> if x < 0 then a + 1 else a) 0 g
          in
          Printf.printf "  %-10s %8.3f %8d %8d %8d %8d\n" hname mean p95 maxg
            ties beats;
          (* Histogram over distinct gap values, ascending. *)
          let hist = Hashtbl.create 16 in
          Array.iter
            (fun x ->
              Hashtbl.replace hist x
                (1 + Option.value ~default:0 (Hashtbl.find_opt hist x)))
            g;
          let entries =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
            |> List.sort compare
          in
          if hi > 0 then Buffer.add_string buf ",";
          Printf.bprintf buf
            "\n        { \"name\": %S, \"mean_gap\": %.4f, \"p95_gap\": %d, \
             \"max_gap\": %d, \"optimal_ties\": %d, \"beats_optimal\": %d,\n\
            \          \"histogram\": [" hname mean p95 maxg ties beats;
          List.iteri
            (fun k (gap, count) ->
              if k > 0 then Buffer.add_string buf ", ";
              Printf.bprintf buf "{ \"gap\": %d, \"count\": %d }" gap count)
            entries;
          Buffer.add_string buf "] }")
        heuristics;
      Buffer.add_string buf " ] }";
      print_newline ())
    machines;
  Printf.bprintf buf
    "\n  ],\n  \"violations\": %d,\n  \"diffexec_divergences\": %d\n}\n"
    !violations !divergences;
  let out = bench_out_path "BENCH_optgap.json" in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n" out;
  if !violations > 0 || !divergences > 0 then begin
    Printf.eprintf
      "optgap: FAIL — %d heuristic-beats-optimal case(s), %d differential \
       divergence(s)\n%!"
      !violations !divergences;
    exit 4
  end

(* jit: compile-to-native and run-native measurements over the corpus —
   allocation wall, emission wall (with emitted bytes/sec, the figure of
   merit for a straight-line one-pass encoder), and native-versus-
   interpreter execution wall, per machine × allocator. Every native run
   is compared against the post-allocation interpreter run (output bytes
   and the integer return register); any divergence prints, flips the
   gate and exits 4 — the benchmark is also a correctness sweep. Writes
   BENCH_jit.json; on a non-x86-64 host it writes
   { "available": false } and exits 0 so CI can always archive the
   artifact. *)
let jit () =
  let buf = Buffer.create 4096 in
  let out () =
    let path = bench_out_path "BENCH_jit.json" in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Buffer.contents buf));
    Printf.printf "wrote %s\n" path
  in
  if not (Lsra_native.Exec.available ()) then begin
    print_endline
      "jit: native execution unavailable on this host (not x86-64); \
       skipping";
    Printf.bprintf buf
      "{\n  \"bench\": \"jit\",\n  \"available\": false,\n  \"scale\": %d\n}\n"
      scale;
    out ()
  end
  else begin
    let allocators =
      [
        ("binpack", binpack);
        ("twopass", Lsra.Allocator.Two_pass);
        ("poletto", Lsra.Allocator.Poletto);
        ("gc", coloring);
      ]
    in
    let machines =
      [
        ("alpha", machine);
        ( "small-8",
          Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
            ~float_caller_saved:4 () );
      ]
    in
    let corpus_of m =
      List.map
        (fun (case : Lsra_workloads.Specbench.case) ->
          ( "spec:" ^ case.Lsra_workloads.Specbench.name,
            case.Lsra_workloads.Specbench.program,
            case.Lsra_workloads.Specbench.input ))
        (Lsra_workloads.Specbench.all m ~scale)
      @ List.filter_map
          (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
            match Lsra_frontend.Minilang.compile m source with
            | prog -> Some ("mini:" ^ mname, prog, minput)
            | exception Lsra_frontend.Lower.Error _ -> None)
          Lsra_workloads.Mini_corpus.all
    in
    Printf.bprintf buf
      "{\n  \"bench\": \"jit\",\n  \"available\": true,\n  \"scale\": %d,\n\
      \  \"fingerprint\": %S,\n  \"machines\": [" scale
      Lsra_native.Lower.fingerprint;
    let divergences = ref 0 and skips = ref 0 in
    List.iteri
      (fun mi (mname, m) ->
        if mi > 0 then Buffer.add_string buf ",";
        Printf.printf "jit on %s:\n" mname;
        Printf.printf "  %-10s %10s %10s %12s %10s %10s %8s\n" "allocator"
          "alloc-ms" "emit-ms" "emit-MB/s" "interp-ms" "native-ms"
          "speedup";
        Printf.bprintf buf "\n    { \"machine\": %S, \"allocators\": ["
          mname;
        let cases = corpus_of m in
        List.iteri
          (fun ai (aname, algo) ->
            let programs = ref 0
            and alloc_s = ref 0.0
            and emit_s = ref 0.0
            and bytes = ref 0
            and interp_s = ref 0.0
            and native_s = ref 0.0 in
            List.iter
              (fun (pname, prog, input) ->
                let copy = Program.copy prog in
                let t0 = Unix.gettimeofday () in
                ignore
                  (Lsra.Allocator.pipeline ~precheck:false ~verify:false
                     algo m copy);
                let t1 = Unix.gettimeofday () in
                match Lsra_native.Lower.compile m copy with
                | Error e ->
                  incr divergences;
                  Printf.printf
                    "  DIVERGENCE %s under %s: emission failed: %s\n" pname
                    aname e
                | Ok compiled -> (
                  let t2 = Unix.gettimeofday () in
                  match Lsra_sim.Interp.run m copy ~input with
                  | Error _ ->
                    (* A post-allocation interpreter trap is an allocator
                       finding owned by diffcheck, not a native one;
                       nothing to compare against. *)
                    incr skips
                  | Ok expected -> (
                    let t3 = Unix.gettimeofday () in
                    let o =
                      Lsra_native.Exec.run_compiled ~input compiled
                        ~heap_words:(Program.heap_words prog)
                    in
                    let t4 = Unix.gettimeofday () in
                    let diverge why =
                      incr divergences;
                      Printf.printf "  DIVERGENCE %s under %s: %s\n" pname
                        aname why
                    in
                    match o.Lsra_native.Exec.trap with
                    | Some t -> diverge ("native run trapped: " ^ t)
                    | None ->
                      if
                        o.Lsra_native.Exec.output
                        <> expected.Lsra_sim.Interp.output
                      then diverge "output mismatch"
                      else (
                        (match expected.Lsra_sim.Interp.ret with
                        | Lsra_sim.Value.Int k
                          when k <> o.Lsra_native.Exec.ret ->
                          diverge "return-value mismatch"
                        | _ -> ());
                        incr programs;
                        alloc_s := !alloc_s +. (t1 -. t0);
                        emit_s := !emit_s +. (t2 -. t1);
                        bytes := !bytes + o.Lsra_native.Exec.code_bytes;
                        interp_s := !interp_s +. (t3 -. t2);
                        native_s := !native_s +. (t4 -. t3)))))
              cases;
            let mb_s =
              if !emit_s > 0.0 then
                float_of_int !bytes /. !emit_s /. 1.0e6
              else 0.0
            in
            let speedup =
              if !native_s > 0.0 then !interp_s /. !native_s else 0.0
            in
            Printf.printf
              "  %-10s %10.2f %10.2f %12.1f %10.2f %10.2f %7.1fx\n" aname
              (!alloc_s *. 1e3) (!emit_s *. 1e3) mb_s (!interp_s *. 1e3)
              (!native_s *. 1e3) speedup;
            if ai > 0 then Buffer.add_string buf ",";
            Printf.bprintf buf
              "\n        { \"name\": %S, \"programs\": %d, \"alloc_ms\": \
               %.3f, \"emit_ms\": %.3f,\n\
              \          \"code_bytes\": %d, \"emit_mb_per_s\": %.1f, \
               \"interp_ms\": %.3f, \"native_ms\": %.3f,\n\
              \          \"native_speedup\": %.2f }" aname !programs
              (!alloc_s *. 1e3) (!emit_s *. 1e3) !bytes mb_s
              (!interp_s *. 1e3) (!native_s *. 1e3) speedup)
          allocators;
        Buffer.add_string buf " ] }";
        print_newline ())
      machines;
    Printf.bprintf buf
      "\n  ],\n  \"skipped\": %d,\n  \"divergences\": %d\n}\n" !skips
      !divergences;
    out ();
    if !divergences > 0 then begin
      Printf.eprintf "jit: FAIL — %d native divergence(s)\n%!" !divergences;
      exit 4
    end
  end

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline
    "Bechamel: allocation-time microbenchmarks (ns per module allocation)";
  let test_of_module name shape algo_name algo =
    let prog = Lsra_workloads.Pressure.build machine shape in
    Test.make
      ~name:(Printf.sprintf "%s/%s" name algo_name)
      (Staged.stage (fun () ->
           let p = Program.copy prog in
           ignore (Lsra.Allocator.run_program algo machine p)))
  in
  let tests =
    List.concat_map
      (fun (name, shape) ->
        [
          test_of_module name shape "binpack" binpack;
          test_of_module name shape "coloring" coloring;
          test_of_module name shape "twopass" Lsra.Allocator.Two_pass;
          test_of_module name shape "poletto" Lsra.Allocator.Poletto;
        ])
      [
        ("cvrin", Lsra_workloads.Pressure.cvrin);
        ("twldrv", Lsra_workloads.Pressure.twldrv);
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Instance.monotonic_clock raw in
          let est =
            match Analyze.OLS.estimates result with
            | Some [ e ] -> Printf.sprintf "%.0f ns" e
            | Some _ | None -> "n/a"
          in
          Printf.printf "%-24s %16s\n%!" (Test.Elt.name elt) est)
        (Test.elements test))
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* perfdump: machine-readable allocation-throughput profile. Each
   workload is allocated at every job count in {1, jobs} (best of 5
   wall-clock runs each); per-pass times, per-pass minor-heap words,
   Gc.quick_stat deltas per job count, and the parallel speedup land in
   BENCH_alloc.json. The parallel output is byte-compared against the
   sequential one — any divergence is a determinism bug and exits 4. *)
let perfdump () =
  let workloads =
    List.map
      (fun shape ->
        ( "pressure:" ^ shape.Lsra_workloads.Pressure.sname,
          Lsra_workloads.Pressure.build machine shape ))
      [
        Lsra_workloads.Pressure.cvrin;
        Lsra_workloads.Pressure.twldrv;
        Lsra_workloads.Pressure.fpppp;
      ]
    @ List.map
        (fun (case : Lsra_workloads.Specbench.case) ->
          ( "spec:" ^ case.Lsra_workloads.Specbench.name,
            case.Lsra_workloads.Specbench.program ))
        (cases ())
  in
  let job_counts = if jobs > 1 then [ 1; jobs ] else [ 1 ] in
  let lifetime_impl =
    match Sys.getenv_opt "LSRA_LIFETIME_IMPL" with
    | Some s -> s
    | None -> "arena"
  in
  let buf = Buffer.create 4096 in
  let totals = Array.make (List.length job_counts) 0. in
  let divergent = ref 0 in
  Printf.bprintf buf
    "{\n\
    \  \"machine\": %S,\n\
    \  \"scale\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"lifetime_impl\": %S,\n\
    \  \"workloads\": [\n"
    (Machine.name machine) scale jobs lifetime_impl;
  List.iteri
    (fun i (name, prog) ->
      let funcs = Program.funcs prog in
      let n_instrs =
        List.fold_left (fun acc (_, f) -> acc + Func.n_instrs f) 0 funcs
      in
      (* Reference run: sequential output text, stats and GC profile. *)
      let seq_stats = ref (Lsra.Stats.create ()) in
      let seq_text =
        let p = Program.copy prog in
        seq_stats := Lsra.Second_chance.run_program machine p;
        Lsra_text.Ir_text.to_string p
      in
      let per_jobs =
        List.map
          (fun j ->
            let stats = ref (Lsra.Stats.create ()) in
            let text =
              let p = Program.copy prog in
              stats := Lsra.Second_chance.run_program ~jobs:j machine p;
              Lsra_text.Ir_text.to_string p
            in
            if not (String.equal text seq_text) then begin
              incr divergent;
              Printf.eprintf
                "perfdump: %s: output at %d jobs diverges from sequential\n%!"
                name j
            end;
            let wall =
              best_of_5_alloc prog (fun p ->
                  ignore (Lsra.Second_chance.run_program ~jobs:j machine p))
            in
            (j, wall, !stats))
          job_counts
      in
      let wall1 =
        match per_jobs with (_, w, _) :: _ -> w | [] -> assert false
      in
      List.iteri
        (fun k (_, w, _) -> totals.(k) <- totals.(k) +. w)
        per_jobs;
      let s = !seq_stats in
      let pw p = s.Lsra.Stats.pass_minor_words.(Lsra.Stats.pass_index p) in
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"name\": %S, \"funcs\": %d, \"instrs\": %d,\n\
        \      \"dataflow_rounds\": %d, \"spill_instrs\": %d,\n\
        \      \"pass_times_s\": { \"liveness\": %.6f, \"lifetime\": %.6f, \
         \"scan\": %.6f, \"resolution\": %.6f, \"peephole\": %.6f },\n\
        \      \"pass_minor_words\": { \"liveness\": %.0f, \"lifetime\": \
         %.0f, \"scan\": %.0f, \"resolution\": %.0f, \"peephole\": %.0f },\n\
        \      \"minor_words_per_instr\": %.1f,\n\
        \      \"by_jobs\": ["
        name (List.length funcs) n_instrs s.Lsra.Stats.dataflow_rounds
        (Lsra.Stats.total_spill s) s.Lsra.Stats.time_liveness
        s.Lsra.Stats.time_lifetime s.Lsra.Stats.time_scan
        s.Lsra.Stats.time_resolution s.Lsra.Stats.time_peephole
        (pw Lsra.Stats.Liveness) (pw Lsra.Stats.Lifetime)
        (pw Lsra.Stats.Scan) (pw Lsra.Stats.Resolution)
        (pw Lsra.Stats.Peephole)
        (s.Lsra.Stats.minor_words /. float_of_int (max 1 n_instrs));
      List.iteri
        (fun k (j, w, st) ->
          if k > 0 then Buffer.add_string buf ",";
          Printf.bprintf buf
            "\n\
            \        { \"jobs\": %d, \"wall_s\": %.6f, \"speedup\": %.3f,\n\
            \          \"gc\": { \"minor_words\": %.0f, \"promoted_words\": \
             %.0f, \"major_words\": %.0f, \"minor_collections\": %d, \
             \"major_collections\": %d } }"
            j w (wall1 /. w) st.Lsra.Stats.minor_words
            st.Lsra.Stats.promoted_words st.Lsra.Stats.major_words
            st.Lsra.Stats.minor_collections st.Lsra.Stats.major_collections)
        per_jobs;
      Buffer.add_string buf " ] }";
      Printf.printf "%-20s" name;
      List.iter
        (fun (j, w, _) -> Printf.printf "  j%-2d %.4fs (x%.2f)" j w (wall1 /. w))
        per_jobs;
      Printf.printf "  %.0f mw/instr\n%!"
        (s.Lsra.Stats.minor_words /. float_of_int (max 1 n_instrs)))
    workloads;
  Printf.bprintf buf "\n  ],\n  \"total\": { \"by_jobs\": [";
  List.iteri
    (fun k j ->
      if k > 0 then Buffer.add_string buf ",";
      Printf.bprintf buf
        " { \"jobs\": %d, \"wall_s\": %.6f, \"speedup\": %.3f }" j totals.(k)
        (totals.(0) /. totals.(k)))
    job_counts;
  Printf.bprintf buf " ] },\n  \"parallel_divergence\": %d\n}\n" !divergent;
  let out = bench_out_path "BENCH_alloc.json" in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "total:";
  List.iteri
    (fun k j ->
      Printf.printf "  j%-2d %.4fs (x%.2f)" j totals.(k)
        (totals.(0) /. totals.(k)))
    job_counts;
  Printf.printf " — wrote %s\n" out;
  if !divergent > 0 then begin
    Printf.eprintf
      "perfdump: FAIL — %d workload(s) diverged between sequential and \
       parallel allocation\n%!"
      !divergent;
    exit 4
  end

(* ------------------------------------------------------------------ *)

(* service: replay the whole workload corpus as a request stream through
   the allocation service, twice — a cold pass that fills the
   content-addressed cache and a warm pass that should be served almost
   entirely from it — plus a deadline pass that exercises the
   degradation ladder. Reports warm/cold hit rate, p50/p99 latency,
   downgrade count and throughput into BENCH_service.json, and
   spot-checks a sample of warm responses against a direct
   [Allocator.pipeline] run (byte-identical or exit 4). *)
let service_corpus () =
  List.map
    (fun (case : Lsra_workloads.Specbench.case) ->
      ( "spec:" ^ case.Lsra_workloads.Specbench.name,
        Lsra_text.Ir_text.to_string case.Lsra_workloads.Specbench.program ))
    (cases ())
  @ List.map
      (fun shape ->
        ( "pressure:" ^ shape.Lsra_workloads.Pressure.sname,
          Lsra_text.Ir_text.to_string
            (Lsra_workloads.Pressure.build machine shape) ))
      [
        Lsra_workloads.Pressure.cvrin;
        Lsra_workloads.Pressure.twldrv;
        Lsra_workloads.Pressure.fpppp;
      ]
  @ List.filter_map
      (fun { Lsra_workloads.Mini_corpus.mname; source; minput = _ } ->
        match Lsra_frontend.Minilang.compile machine source with
        | prog -> Some ("mini:" ^ mname, Lsra_text.Ir_text.to_string prog)
        | exception Lsra_frontend.Lower.Error _ -> None)
      Lsra_workloads.Mini_corpus.all

let pct a p =
  if Array.length a = 0 then 0.
  else a.(int_of_float (p *. float_of_int (Array.length a - 1)))

let service_inproc () =
  let passes = Lsra.Passes.default in
  let corpus_sources = service_corpus () in
  let n = List.length corpus_sources in
  let cfg =
    {
      (Lsra_service.Service.default_config machine) with
      Lsra_service.Service.spot_check = 4;
    }
  in
  let svc = Lsra_service.Service.create cfg in
  let sched = Lsra_service.Scheduler.create ~capacity:32 ~jobs svc in
  let requests tag ?deadline algo =
    List.map
      (fun (name, source) ->
        Lsra_service.Service.request ~algo ~passes ?deadline
          ~id:(tag ^ ":" ^ name) source)
      corpus_sources
  in
  let replay tag ?deadline algo =
    let t0 = Unix.gettimeofday () in
    let results =
      Lsra_service.Scheduler.run_batch sched (requests tag ?deadline algo)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let responses =
      List.map
        (fun ((req : Lsra_service.Service.request), result) ->
          match result with
          | Ok r -> r
          | Error e ->
            Printf.eprintf "bench service: %s request %s failed: %s\n%!" tag
              req.Lsra_service.Service.req_id
              (Lsra_service.Protocol.err_message_of_exn e);
            exit (max 1 (Lsra_service.Protocol.err_code_of_exn e)))
        results
    in
    (responses, wall)
  in
  let latencies rs =
    let a =
      Array.of_list (List.map (fun r -> r.Lsra_service.Service.elapsed) rs)
    in
    Array.sort compare a;
    a
  in
  let binpack = Lsra.Allocator.default_second_chance in
  let cold, cold_wall = replay "cold" binpack in
  let after_cold = Lsra_service.Service.counters svc in
  let warm, warm_wall = replay "warm" binpack in
  let after_warm = Lsra_service.Service.counters svc in
  let warm_hits =
    after_warm.Lsra_service.Service.cache.Lsra_service.Cache.hits
    - after_cold.Lsra_service.Service.cache.Lsra_service.Cache.hits
  in
  let warm_hit_rate = float_of_int warm_hits /. float_of_int (max 1 n) in
  (* Deadline pass: graph coloring under a budget no corpus module can
     meet forces the quality/speed dial all the way down the ladder. *)
  let deadline, _ =
    replay "deadline" ~deadline:1e-9 Lsra.Allocator.Graph_coloring
  in
  let downgrades =
    List.length
      (List.filter
         (fun r -> r.Lsra_service.Service.downgraded_to <> None)
         deadline)
  in
  (* Differential spot-check: every warm response must be byte-identical
     to a direct pipeline run of the same source under the same config. *)
  let spot_divergences = ref 0 in
  List.iter2
    (fun (name, source) (r : Lsra_service.Service.response) ->
      let prog = Lsra_text.Ir_text.of_string source in
      ignore (Lsra.Allocator.pipeline ~passes binpack machine prog);
      let direct = Lsra_text.Ir_text.to_string prog in
      if not (String.equal direct r.Lsra_service.Service.output) then begin
        incr spot_divergences;
        Printf.eprintf "bench service: DIVERGENCE on %s (served != direct)\n%!"
          name
      end)
    corpus_sources warm;
  let cold_lat = latencies cold and warm_lat = latencies warm in
  let final = Lsra_service.Service.counters svc in
  let c = final.Lsra_service.Service.cache in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n  \"machine\": %S,\n  \"scale\": %d,\n  \"jobs\": %d,\n\
    \  \"requests\": %d,\n"
    (Machine.name machine) scale jobs n;
  Printf.bprintf buf
    "  \"cold\": { \"wall_s\": %.6f, \"p50_s\": %.6f, \"p99_s\": %.6f, \
     \"throughput_rps\": %.1f },\n"
    cold_wall (pct cold_lat 0.50) (pct cold_lat 0.99)
    (float_of_int n /. cold_wall);
  Printf.bprintf buf
    "  \"warm\": { \"wall_s\": %.6f, \"p50_s\": %.6f, \"p99_s\": %.6f, \
     \"throughput_rps\": %.1f, \"hit_rate\": %.3f },\n"
    warm_wall (pct warm_lat 0.50) (pct warm_lat 0.99)
    (float_of_int n /. warm_wall)
    warm_hit_rate;
  Printf.bprintf buf
    "  \"cache\": { \"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"entries\": %d, \"bytes\": %d },\n"
    c.Lsra_service.Cache.hits c.Lsra_service.Cache.misses
    c.Lsra_service.Cache.evictions c.Lsra_service.Cache.entries
    c.Lsra_service.Cache.bytes;
  Printf.bprintf buf
    "  \"downgrades\": %d,\n  \"spot_checks\": %d,\n\
    \  \"diffexec_spot\": { \"checked\": %d, \"divergences\": %d }\n}\n"
    final.Lsra_service.Service.downgrades
    final.Lsra_service.Service.spot_checks n !spot_divergences;
  let out = bench_out_path "BENCH_service.json" in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "service: %d requests, cold p50 %.2fms p99 %.2fms, warm p50 %.2fms \
     p99 %.2fms\n"
    n
    (1e3 *. pct cold_lat 0.50)
    (1e3 *. pct cold_lat 0.99)
    (1e3 *. pct warm_lat 0.50)
    (1e3 *. pct warm_lat 0.99);
  Printf.printf
    "service: warm hit rate %.1f%% (%d/%d), %d downgrades in the deadline \
     pass, %d spot checks, %d divergences — wrote %s\n"
    (100. *. warm_hit_rate) warm_hits n downgrades
    final.Lsra_service.Service.spot_checks !spot_divergences out;
  if !spot_divergences > 0 then exit 4;
  if warm_hit_rate < 0.9 then begin
    Printf.eprintf "bench service: warm hit rate %.3f below the 0.9 bar\n%!"
      warm_hit_rate;
    exit 1
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The server's bind races our first connect: retry until it is up. *)
let connect_retry fd path =
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n < 250 ->
      ignore (Unix.select [] [] [] 0.02);
      go (n + 1)
  in
  go 0

(* [bench service --clients K]: replay the corpus from K concurrent
   socket clients against a mux-served server backed by a persistent
   sharded store — cold pass, warm pass — then shut the server down and
   prove a {e fresh} one (same store directory, empty in-memory cache)
   reaches the warm-hit bar purely from the journal. Every served
   payload is byte-diffed against a direct [Allocator.pipeline] run
   (zero-divergence gate). *)
let service_clients k =
  let passes = Lsra.Passes.default in
  let binpack = Lsra.Allocator.default_second_chance in
  let entries =
    List.map
      (fun (name, source) ->
        let prog = Lsra_text.Ir_text.of_string source in
        ignore (Lsra.Allocator.pipeline ~passes binpack machine prog);
        (name, source, Lsra_text.Ir_text.to_string prog))
      (service_corpus ())
  in
  let n = List.length entries in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lsra-bench-service-%d" (Unix.getpid ()))
  in
  rm_rf tmp;
  (try Unix.mkdir tmp 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let store_dir = Filename.concat tmp "store" in
  let sock_path = Filename.concat tmp "serve.sock" in
  let shards = 4 in
  let divergences = ref 0 and client_err = ref 0 in
  let tally = Mutex.create () in
  let client tag i part =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    connect_retry fd sock_path;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let lats = ref [] and hits = ref 0 in
    List.iter
      (fun (name, source, expected) ->
        let id = Printf.sprintf "%s:c%d:%s" tag i name in
        let t0 = Unix.gettimeofday () in
        output_string oc
          (Lsra_service.Protocol.render_frame ("REQ " ^ id) (Some source));
        flush oc;
        let rec reply () =
          match In_channel.input_line ic with
          | None -> failwith "bench service: server closed the connection"
          | Some "" -> reply ()
          | Some line -> (
            match Lsra_service.Protocol.parse_reply line with
            | Ok (Lsra_service.Protocol.R_ok { hit; body_len = Some len; _ })
              ->
              let body = really_input_string ic len in
              lats := (Unix.gettimeofday () -. t0) :: !lats;
              if hit then incr hits;
              if not (String.equal body expected) then begin
                Mutex.lock tally;
                incr divergences;
                Mutex.unlock tally;
                Printf.eprintf
                  "bench service: DIVERGENCE on %s (served != direct)\n%!"
                  name
              end
            | Ok (Lsra_service.Protocol.R_ok { body_len = None; _ }) ->
              failwith "bench service: OK reply without len="
            | Ok (Lsra_service.Protocol.R_err { code; msg; _ }) ->
              Mutex.lock tally;
              client_err := max !client_err (max 1 code);
              Mutex.unlock tally;
              Printf.eprintf "bench service: ERR %d on %s: %s\n%!" code name
                msg
            | Ok (Lsra_service.Protocol.R_stats _) -> reply ()
            | Error m -> failwith ("bench service: bad reply: " ^ m))
        in
        reply ())
      part;
    Unix.close fd;
    (!lats, !hits)
  in
  let parts = Array.make k [] in
  List.iteri (fun i e -> parts.(i mod k) <- e :: parts.(i mod k)) entries;
  (* One pass: K client domains in lockstep request/response; requests
     that land in the same event-loop round share a scheduler batch. *)
  let replay tag =
    let t0 = Unix.gettimeofday () in
    let doms =
      Array.to_list
        (Array.mapi
           (fun i part -> Domain.spawn (fun () -> client tag i part))
           parts)
    in
    let results = List.map Domain.join doms in
    let wall = Unix.gettimeofday () -. t0 in
    let lats = Array.of_list (List.concat_map fst results) in
    Array.sort compare lats;
    let hits = List.fold_left (fun acc (_, h) -> acc + h) 0 results in
    (lats, hits, wall)
  in
  (* Boot a server process-equivalent: fresh service (warm-loading from
     [store_dir] if a journal exists), scheduler over the domain pool,
     mux on a fresh socket. Returns whatever [f] produced plus the
     warm-load count and the server's exit severity. *)
  let with_server f =
    let svc =
      Lsra_service.Service.create
        {
          (Lsra_service.Service.default_config machine) with
          Lsra_service.Service.spot_check = 4;
          shards;
          store_dir = Some store_dir;
        }
    in
    let warm_loaded =
      (Lsra_service.Service.counters svc).Lsra_service.Service.warm_loaded
    in
    let sched =
      Lsra_service.Scheduler.create ~capacity:(max 8 (2 * k)) ~jobs svc
    in
    let srv =
      Domain.spawn (fun () ->
          Lsra_service.Mux.serve_socket ~max_clients:(k + 4) sched
            sock_path)
    in
    let r = f () in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    connect_retry fd sock_path;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc (Lsra_service.Protocol.render_frame "STATS shutdown" None);
    output_string oc (Lsra_service.Protocol.render_frame "QUIT" None);
    flush oc;
    ignore (In_channel.input_line ic);
    Unix.close fd;
    let severity = Domain.join srv in
    (r, warm_loaded, severity)
  in
  let (cold, warm), first_loaded, sev1 =
    with_server (fun () ->
        let cold = replay "cold" in
        let warm = replay "warm" in
        (cold, warm))
  in
  let restart, restart_loaded, sev2 = with_server (fun () -> replay "restart") in
  let _, _, _ = cold in
  let _, warm_hits, _ = warm in
  let _, restart_hits, _ = restart in
  let rate h = float_of_int h /. float_of_int (max 1 n) in
  let pass_json name (lat, hits, wall) =
    Printf.sprintf
      "  \"%s\": { \"wall_s\": %.6f, \"p50_s\": %.6f, \"p99_s\": %.6f, \
       \"throughput_rps\": %.1f, \"hit_rate\": %.3f },\n"
      name wall (pct lat 0.50) (pct lat 0.99)
      (float_of_int n /. wall)
      (rate hits)
  in
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n  \"machine\": %S,\n  \"scale\": %d,\n  \"jobs\": %d,\n\
    \  \"clients\": %d,\n  \"shards\": %d,\n  \"requests\": %d,\n"
    (Machine.name machine) scale jobs k shards n;
  Buffer.add_string buf (pass_json "cold" cold);
  Buffer.add_string buf (pass_json "warm" warm);
  Buffer.add_string buf (pass_json "restart" restart);
  Printf.bprintf buf
    "  \"warm_loaded_on_restart\": %d,\n\
    \  \"diffexec_spot\": { \"checked\": %d, \"divergences\": %d }\n}\n"
    restart_loaded (3 * n) !divergences;
  let out = bench_out_path "BENCH_service.json" in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "service: %d clients x %d requests/pass over %s\n" k n sock_path;
  List.iter
    (fun (name, (lat, hits, wall)) ->
      Printf.printf
        "service: %-7s p50 %.2fms p99 %.2fms, %.1f req/s, hit rate %.1f%% \
         (%d/%d) in %.2fs\n"
        name
        (1e3 *. pct lat 0.50)
        (1e3 *. pct lat 0.99)
        (float_of_int n /. wall)
        (100. *. rate hits) hits n wall)
    [ ("cold", cold); ("warm", warm); ("restart", restart) ];
  Printf.printf
    "service: restart warm-loaded %d journal records (first boot %d) — \
     wrote %s\n"
    restart_loaded first_loaded out;
  rm_rf tmp;
  if !divergences > 0 then exit 4;
  let sev = max sev1 sev2 in
  if sev > 0 then exit sev;
  if !client_err > 0 then exit !client_err;
  if rate warm_hits < 0.9 then begin
    Printf.eprintf "bench service: warm hit rate %.3f below the 0.9 bar\n%!"
      (rate warm_hits);
    exit 1
  end;
  if rate restart_hits < 0.9 || restart_loaded = 0 then begin
    Printf.eprintf
      "bench service: restart hit rate %.3f (warm-loaded %d) below the 0.9 \
       bar — the journal did not survive the restart\n%!"
      (rate restart_hits) restart_loaded;
    exit 1
  end

let service () =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--clients" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some c when c >= 1 -> Some c
      | Some _ | None ->
        Printf.eprintf "bench service: malformed --clients %S (expected >= 1)\n"
          Sys.argv.(i + 1);
        exit 2
    else scan (i + 1)
  in
  match scan 2 with None -> service_inproc () | Some k -> service_clients k

(* ------------------------------------------------------------------ *)

(* With LSRA_FUZZ_ARTIFACT_DIR set, every divergence leaves durable
   artifacts there: the shrunk reproducer as textual IR, plus the
   diverging allocator's decision trace over that reproducer in both
   renderings (so a CI failure can be diagnosed from the uploaded
   artifacts alone, without re-running the seed). *)
let write_fuzz_artifacts dir reports =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  List.iter
    (fun r ->
      let stem =
        Printf.sprintf "%s/seed%d_%s_%s" dir r.Lsra_sim.Diffexec.seed
          r.Lsra_sim.Diffexec.machine_name r.Lsra_sim.Diffexec.algorithm
      in
      write (stem ^ ".lsra") r.Lsra_sim.Diffexec.reproducer;
      let m =
        List.assoc_opt r.Lsra_sim.Diffexec.machine_name
          Lsra_sim.Diffexec.default_fuzz_machines
      in
      let algo =
        List.find_opt
          (fun a ->
            Lsra.Allocator.short_name a = r.Lsra_sim.Diffexec.algorithm)
          Lsra.Allocator.all
      in
      match m, algo with
      | Some m, Some algo -> (
        try
          let prog =
            Lsra_text.Ir_text.of_string r.Lsra_sim.Diffexec.reproducer
          in
          let trace = Lsra.Trace.create () in
          ignore (Lsra.Allocator.run_program ~trace algo m prog);
          let events = Lsra.Trace.events trace in
          write (stem ^ ".trace.txt") (Lsra.Trace.to_text events);
          write (stem ^ ".trace.jsonl") (Lsra.Trace.to_jsonl events)
        with e ->
          (* e.g. the divergence is the allocator crashing: record that
             instead of a trace *)
          write (stem ^ ".trace.txt")
            ("no trace: allocation failed with " ^ Printexc.to_string e ^ "\n"))
      | _ ->
        write (stem ^ ".trace.txt")
          "no trace: unknown machine or allocator name\n")
    reports;
  Printf.printf "fuzz: wrote %d reproducer(s) + trace(s) under %s\n%!"
    (List.length reports) dir

(* Differential fuzz run: seeded random programs through every allocator
   on every fuzz machine, divergences shrunk to minimal reproducers.
   `fuzz [COUNT] [BASE]` checks seeds BASE..BASE+COUNT-1 (default 100
   from 0) — a fixed seed set, so CI runs are reproducible. *)
let fuzz () =
  let argv_int pos ~default ~what =
    if Array.length Sys.argv <= pos then default
    else
      match int_of_string_opt Sys.argv.(pos) with
      | Some n when n >= 0 -> n
      | Some _ | None ->
        Printf.eprintf "bench fuzz: malformed %s %S (expected an integer >= 0)\n"
          what Sys.argv.(pos);
        exit 2
  in
  let count = argv_int 2 ~default:100 ~what:"seed count" in
  let base = argv_int 3 ~default:0 ~what:"seed base" in
  let seeds = List.init count (fun i -> base + i) in
  Printf.printf
    "diffexec fuzz: seeds %d..%d, %d machines x %d allocators\n%!" base
    (base + count - 1)
    (List.length Lsra_sim.Diffexec.default_fuzz_machines)
    (List.length Lsra.Allocator.all);
  let t0 = Unix.gettimeofday () in
  let reports =
    Lsra_sim.Diffexec.fuzz ~log:(Printf.printf "  %s\n%!") ~seeds ()
  in
  Printf.printf "fuzz: %d seeds in %.1fs, %d divergences\n%!" count
    (Unix.gettimeofday () -. t0)
    (List.length reports);
  List.iter
    (fun r ->
      print_newline ();
      print_endline (Lsra_sim.Diffexec.pp_fuzz_report r))
    reports;
  (match Sys.getenv_opt "LSRA_FUZZ_ARTIFACT_DIR" with
  | Some dir when reports <> [] -> write_fuzz_artifacts dir reports
  | Some _ | None -> ());
  if reports <> [] then exit 1

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Printf.printf
    "second-chance binpacking reproduction — machine: %s, scale: %d\n\n"
    (Machine.name machine) scale;
  match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "figure3" -> figure3 ()
  | "table3" -> table3 ()
  | "twopass" -> twopass ()
  | "ablation" | "ablations" -> ablation ()
  | "layout" -> layout ()
  | "frames" -> frames ()
  | "corpus" -> corpus ()
  | "optgap" -> optgap ()
  | "jit" -> jit ()
  | "bechamel" -> bechamel ()
  | "perfdump" -> perfdump ()
  | "service" -> service ()
  | "fuzz" -> fuzz ()
  | "all" ->
    table1 ();
    table2 ();
    figure3 ();
    table3 ();
    twopass ();
    ablation ();
    layout ();
    frames ();
    corpus ()
  | other ->
    Printf.eprintf
      "unknown benchmark %S (expected \
       table1|table2|figure3|table3|twopass|ablation|layout|frames|corpus|optgap|jit|bechamel|perfdump|service|fuzz|all)\n"
      other;
    exit 2
