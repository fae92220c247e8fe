(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§3) on the synthetic workload suite, plus the distance of
   each heuristic from the exact optimum.

     table1   — dynamic instruction counts and modelled run times
     table2   — % of dynamic instructions that are spill code
     figure3  — spill-code composition (evict/resolve × load/store/move)
     table3   — allocation (compile) time vs. candidate count
     twopass  — §3.1: two-pass binpacking vs. second chance on wc/eqntott
     ablation — §2.5/§2.6 options: early second chance, move opt,
                consistency dataflow variants
     layout   — resolution traffic under three block layouts
     frames   — spill slots before and after frame compaction
     corpus   — the Minilang corpus under binpack and coloring
     optgap   — each heuristic's distance from the exact optimum
                (BENCH_optgap.json, one line of JSON)

   Run with no argument for table1 through corpus. The oracle sweep over
   corpus × machine × allocator is [lsra_tool diffcheck]; timing of the
   native, allocation and serving paths is perfbench's. *)

open Lsra_ir
open Lsra_target
module Sweep = Lsra_sim.Sweep

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

(* Artifact directory for BENCH_optgap.json: LSRA_BENCH_OUT when set
   (created if missing), so CI can archive it from any working
   directory; cwd otherwise. *)
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

(* Writes [v] as one line of JSON to [file] under the artifact directory;
   returns the path written. *)
let write_json file (v : Lsra.Json.t) =
  let path = bench_out_path file in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Lsra.Json.to_string v);
      Out_channel.output_char oc '\n');
  path

(* [f ()] and its monotonic wall time in seconds. Wall, not [Sys.time]:
   CPU time sums over domains and would hide any parallel speedup. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Lsra.Stats.seconds_since t0)

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

(* The dynamic counts of [case] allocated by [algo] under the default
   passes. *)
let compile_and_run algo (case : Lsra_workloads.Specbench.case) =
  let prog = Program.copy case.Lsra_workloads.Specbench.program in
  ignore (Lsra.Allocator.pipeline algo machine prog);
  match
    Lsra_sim.Interp.run machine prog ~input:case.Lsra_workloads.Specbench.input
  with
  | Ok outcome -> outcome.Lsra_sim.Interp.counts
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
        float_of_int bp.Lsra_sim.Interp.total /. float_of_int gc.total
      in
      let bt = seconds_of_cycles bp.cycles in
      let gt = seconds_of_cycles gc.cycles in
      Printf.printf "%-10s %14d %14d %7.3f %10.6f %10.6f %7.3f\n"
        case.Lsra_workloads.Specbench.name bp.total gc.total ratio bt gt
        (bt /. gt))
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
      let pct c =
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
      let bp_total = Lsra_sim.Interp.spill_total bp in
      let gc_total = Lsra_sim.Interp.spill_total gc in
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
        row "-b" bp;
        row "-c" gc
      end)
    (cases ());
  hrule 92;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* The copy the allocator mutates is made outside the timed region, so
   only allocation is measured. Returns the best time and the last run's
   stats, with each pass's wall time the best of the 5 runs. *)
let best_of_5_alloc algo prog =
  let best = ref infinity and stats = ref (Lsra.Stats.create ()) in
  let low = Array.make Lsra.Stats.n_passes infinity in
  for _ = 1 to 5 do
    let p = Program.copy prog in
    let s, t = timed (fun () -> Lsra.Allocator.run_program algo machine p) in
    Array.iteri (fun i v -> low.(i) <- min low.(i) v) s.Lsra.Stats.pass_time;
    stats := s;
    best := min !best t
  done;
  let s = !stats in
  Array.blit low 0 s.Lsra.Stats.pass_time 0 Lsra.Stats.n_passes;
  (!best, s)

(* [name ms, ...] over [passes], from [s]'s pass table. *)
let pass_ms s passes =
  String.concat ", "
    (List.map
       (fun p ->
         Printf.sprintf "%s %.2f" (Lsra.Stats.pass_name p)
           (1e3 *. s.Lsra.Stats.pass_time.(Lsra.Stats.pass_index p)))
       passes)

let table3 () =
  print_endline "Table 3: allocation time (seconds, best of 5 runs)";
  print_endline
    "(candidates and interference-graph edges are per procedure, summed";
  print_endline " over all coloring iterations, as in the paper;";
  print_endline
    " rds = worklist dataflow rounds, 0 when there is nothing to solve,";
  print_endline " passes = binpack per-pass wall ms, best of 5)";
  hrule 78;
  Printf.printf "%-10s %10s %12s %12s %12s %8s %4s\n" "module" "cands"
    "edges" "coloring" "binpack" "gc/bp" "rds";
  hrule 78;
  List.iter
    (fun shape ->
      let prog = Lsra_workloads.Pressure.build machine shape in
      let t_gc, gc_stats = best_of_5_alloc coloring prog in
      let t_bp, bp_stats = best_of_5_alloc binpack prog in
      let nproc = shape.Lsra_workloads.Pressure.procs in
      Printf.printf "%-10s %10d %12d %12.4f %12.4f %8.2f %4d\n"
        shape.Lsra_workloads.Pressure.sname
        shape.Lsra_workloads.Pressure.candidates
        (gc_stats.Lsra.Stats.interference_edges / nproc)
        t_gc t_bp (t_gc /. t_bp) bp_stats.Lsra.Stats.dataflow_rounds;
      Printf.printf "%-10s   passes(ms): %s\n" ""
        (pass_ms bp_stats Lsra.Stats.[ Liveness; Lifetime; Scan; Resolution ]))
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
      let t_gc, _ = best_of_5_alloc coloring prog in
      let t_bp, _ = best_of_5_alloc binpack prog in
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
        Printf.printf "%-10s %14d %14d %9.3f\n" name sc.Lsra_sim.Interp.total
          tp.total
          (float_of_int tp.total /. float_of_int sc.total))
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
      let t algo = (compile_and_run algo case).Lsra_sim.Interp.total in
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
  (* The time side of the conservative variant, whose quality side is the
     column above: scan and resolution under the default pipeline, each
     the best of 5 interleaved runs per mode, and resolution's pass-1
     location comparisons (the same in every run). *)
  print_endline
    "Consistency modes: scan and resolution ms (each best of 5, default \
     passes)";
  hrule 82;
  Printf.printf "%-10s %10s %10s %10s %10s %8s %12s\n" "module" "scan it"
    "res it" "scan co" "res co" "c/i" "pairs it";
  hrule 82;
  let scan_res_time cons progs =
    List.fold_left
      (fun (scan, res, pairs) prog ->
        let s =
          Lsra.Allocator.pipeline (mk ~esc:true ~mo:true ~cons) machine
            (Program.copy prog)
        in
        let time p = s.Lsra.Stats.pass_time.(Lsra.Stats.pass_index p) in
        ( scan +. time Lsra.Stats.Scan,
          res +. time Lsra.Stats.Resolution,
          pairs + s.Lsra.Stats.resolve_pairs ))
      (0., 0., 0) progs
  in
  let jit_small =
    Array.to_list
      (Array.map
         (fun (u : Perfbench.Inputs.unit_) ->
           Lsra_text.Ir_text.of_string u.Perfbench.Inputs.source)
         (Perfbench.Inputs.jit_small ~count:1200))
  in
  List.iter
    (fun (name, progs) ->
      let best = Array.make 4 infinity and pairs = ref 0 in
      let keep i t = best.(i) <- min best.(i) t in
      for _ = 1 to 5 do
        let s, r, p = scan_res_time Lsra.Binpack.Iterative progs in
        keep 0 s;
        keep 1 r;
        pairs := p;
        let s, r, _ = scan_res_time Lsra.Binpack.Conservative progs in
        keep 2 s;
        keep 3 r
      done;
      Printf.printf "%-10s %10.2f %10.2f %10.2f %10.2f %8.2f %12d\n" name
        (1e3 *. best.(0)) (1e3 *. best.(1)) (1e3 *. best.(2))
        (1e3 *. best.(3))
        ((best.(2) +. best.(3)) /. (best.(0) +. best.(1)))
        !pairs)
    (List.map
       (fun sh ->
         ( sh.Lsra_workloads.Pressure.sname,
           [ Lsra_workloads.Pressure.build machine sh ] ))
       Lsra_workloads.Pressure.[ cvrin; twldrv; fpppp ]
    @ [ ("jit-small", jit_small) ]);
  hrule 82;
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
      let stats = Lsra.Allocator.run binpack m f in
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
  let m = Sweep.small_7_7 in
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
   (an optimality bug by construction) or the oracle diverges, 3 if the
   verifier only rejected. *)
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
  let optimal = Lsra.Allocator.Optimal opts in
  let heuristics = Lsra.Allocator.below optimal in
  (* [beats] holds a Diverge per heuristic that beat the optimum (an
     optimality bug by construction), [oracle] the differential check of
     each exact allocation. *)
  let beats = Sweep.tally () and oracle = Sweep.tally () in
  let machines =
    List.map
      (fun (mname, m) ->
        Printf.printf "optgap on %s (node budget %d):\n" mname node_budget;
        let cases = Sweep.corpus ~pressure:false ~scale m in
        (* gaps.(h) collects (heuristic spill - exact spill) per measured
           function, one slot per heuristic, measurement order. *)
        let gaps = Array.make (List.length heuristics) [] in
        let measured = ref 0 and skipped = ref 0 in
        Sweep.run oracle cases [ optimal ]
          (fun { Sweep.name; program; input } algo ->
            List.iter
              (fun (fname, f) ->
                let exact_stats =
                  Lsra.Allocator.run algo m (Lsra_ir.Func.copy f)
                in
                if exact_stats.Lsra.Stats.downgrades > 0 then incr skipped
                else begin
                  let exact = Lsra.Stats.total_spill exact_stats in
                  incr measured;
                  List.iteri
                    (fun hi h ->
                      let st = Lsra.Allocator.run h m (Lsra_ir.Func.copy f) in
                      let gap = Lsra.Stats.total_spill st - exact in
                      if gap < 0 then begin
                        let why =
                          Printf.sprintf "%s beats optimal on %s/%s (%d < %d)"
                            (Lsra.Allocator.short_name h)
                            name fname
                            (Lsra.Stats.total_spill st)
                            exact
                        in
                        Printf.printf "  VIOLATION: %s\n" why;
                        Sweep.record beats (Sweep.Diverge why)
                      end;
                      gaps.(hi) <- gap :: gaps.(hi))
                    heuristics
                end)
              (Program.funcs program);
            (* The exact allocator's output must survive the strongest
               oracle we have: differential execution with the abstract
               verifier and trace replay-check inside. *)
            match Lsra_sim.Diffexec.check ~input m algo program with
            | Ok () -> Sweep.Pass
            | Error d ->
              Printf.printf "  DIVERGENCE on %s: %s\n" name
                (Lsra_sim.Diffexec.divergence_to_string d);
              Sweep.of_divergence d);
        Printf.printf
          "  %d function(s) solved to optimality, %d skipped (over budget)\n"
          !measured !skipped;
        Printf.printf "  %-10s %8s %8s %8s %8s %8s\n" "allocator" "mean"
          "p95" "max" "ties" "beats";
        let allocators =
          List.mapi
            (fun hi h ->
              let hname = Lsra.Allocator.short_name h in
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
              let count p =
                Array.fold_left (fun a x -> if p x then a + 1 else a) 0 g
              in
              let ties = count (fun x -> x = 0) in
              let beats = count (fun x -> x < 0) in
              Printf.printf "  %-10s %8.3f %8d %8d %8d %8d\n" hname mean p95
                maxg ties beats;
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
              `Assoc
                [
                  ("name", `String hname); ("mean_gap", `Float mean);
                  ("p95_gap", `Int p95); ("max_gap", `Int maxg);
                  ("optimal_ties", `Int ties); ("beats_optimal", `Int beats);
                  ( "histogram",
                    `List
                      (List.map
                         (fun (gap, count) ->
                           `Assoc [ ("gap", `Int gap); ("count", `Int count) ])
                         entries) );
                ])
            heuristics
        in
        print_newline ();
        `Assoc
          [
            ("machine", `String mname); ("functions", `Int !measured);
            ("skipped_budget", `Int !skipped); ("allocators", `List allocators);
          ])
      Sweep.bench_machines
  in
  let violations = beats.Sweep.diverged
  and divergences = oracle.Sweep.diverged + oracle.Sweep.rejected in
  let out =
    write_json "BENCH_optgap.json"
      (`Assoc
        [
          ("bench", `String "optgap"); ("scale", `Int scale);
          ("node_budget", `Int node_budget); ("machines", `List machines);
          ("violations", `Int violations);
          ("diffexec_divergences", `Int divergences);
        ])
  in
  Printf.printf "wrote %s\n" out;
  if violations > 0 || divergences > 0 then
    Printf.eprintf
      "optgap: FAIL — %d heuristic-beats-optimal case(s), %d differential \
       divergence(s)\n%!"
      violations divergences;
  Sweep.exit_on [ beats; oracle ]

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
       table1|table2|figure3|table3|twopass|ablation|layout|frames|corpus|optgap|all)\n"
      other;
    exit 2
