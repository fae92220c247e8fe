open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

(* Tests for the small passes (peephole, stats plumbing) and for the
   whole pipeline entry point. *)

let test_peephole_self_moves () =
  let machine = Machine.small () in
  let r = Machine.int_ret machine in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg r) (Operand.int 3);
  B.move b (Loc.Reg r) (Operand.reg r) (* self-move *);
  B.nop b;
  B.ret b;
  let f = B.finish b in
  let removed = Lsra.Peephole.run f in
  Alcotest.(check int) "self-move and nop removed" 2 removed;
  Alcotest.(check int) "one instruction remains" 1
    (Array.length (Block.body (Cfg.block (Func.cfg f) "entry")))

let test_peephole_keeps_real_moves () =
  let machine = Machine.small () in
  let r0 = Machine.int_ret machine in
  let r1 = Mreg.make ~cls:Rclass.Int 1 in
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.move b (Loc.Reg r1) (Operand.int 3);
  B.move b (Loc.Reg r0) (Operand.reg r1);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check int) "nothing removed" 0 (Lsra.Peephole.run f)

let test_stats_accumulate () =
  let a = Lsra.Stats.create () in
  a.Lsra.Stats.evict_loads <- 2;
  a.Lsra.Stats.resolve_stores <- 3;
  a.Lsra.Stats.coloring_iterations <- 2;
  let b = Lsra.Stats.create () in
  b.Lsra.Stats.evict_loads <- 1;
  b.Lsra.Stats.coloring_iterations <- 5;
  (* distinct per pass, and exact in binary, so the sums are exact *)
  for i = 0 to Lsra.Stats.n_passes - 1 do
    a.Lsra.Stats.pass_time.(i) <- float i /. 4.;
    a.Lsra.Stats.pass_minor_words.(i) <- float (10 * i);
    b.Lsra.Stats.pass_time.(i) <- float (i + 1) /. 8.;
    b.Lsra.Stats.pass_minor_words.(i) <- float (100 * i)
  done;
  Lsra.Stats.add ~into:a b;
  Alcotest.(check int) "sums counters" 3 a.Lsra.Stats.evict_loads;
  Alcotest.(check int) "keeps max iterations" 5
    a.Lsra.Stats.coloring_iterations;
  Alcotest.(check int) "total spill" 6 (Lsra.Stats.total_spill a);
  Alcotest.(check (array (float 0.)))
    "sums every pass's time"
    (Array.init Lsra.Stats.n_passes (fun i ->
         (float i /. 4.) +. (float (i + 1) /. 8.)))
    a.Lsra.Stats.pass_time;
  Alcotest.(check (array (float 0.)))
    "sums every pass's minor words"
    (Array.init Lsra.Stats.n_passes (fun i -> float (110 * i)))
    a.Lsra.Stats.pass_minor_words

(* [Stats.pp]'s text, pinned on a fresh value and on one with every
   field distinct (a record literal, so a new field must be given here
   too): how the counters are stored cannot change a byte of what the CLI
   prints. The optional lines are joined by cuts outside any box, so two
   short ones share a line (slot compaction and downgrades below): that
   is the text as printed, pinned as it is. *)
let test_stats_pp_pin () =
  Alcotest.(check string) "fresh"
    "evict: 0 loads, 0 stores, 0 moves\n\
     resolve: 0 loads, 0 stores, 0 moves\n\
     slots: 0; dataflow rounds: 0; resolution comparisons: 0; coloring \
     iterations: 0"
    (Format.asprintf "%a" Lsra.Stats.pp (Lsra.Stats.create ()));
  let n = Lsra.Stats.n_passes in
  let s =
    {
      Lsra.Stats.evict_loads = 1; evict_stores = 2; evict_moves = 3;
      resolve_loads = 4; resolve_stores = 5; resolve_moves = 6; slots = 7;
      frame_saved = 8; dataflow_rounds = 9; resolve_pairs = 10;
      coloring_iterations = 11; interference_edges = 12; coalesced_moves = 13;
      downgrades = 14; opt_nodes = 15; opt_proven = 16; alloc_time = 17.;
      pass_time = Array.init n (fun i -> float (18 + i) /. 1e3);
      minor_words = 27.; promoted_words = 28.; major_words = 29.;
      minor_collections = 30; major_collections = 31;
      pass_minor_words = Array.init n (fun i -> float (32 + i));
    }
  in
  Alcotest.(check string) "every field set"
    "evict: 1 loads, 2 stores, 3 moves\n\
     resolve: 4 loads, 5 stores, 6 moves\n\
     slots: 7; dataflow rounds: 9; resolution comparisons: 10; coloring \
     iterations: 11\n\
     frame words saved by slot compaction: 8\n\
     deadline downgrades: 14\n\
     branch-and-bound: 15 nodes, 16 functions proven optimal\n\
     pass times (ms): liveness 18.00, lifetime 19.00, scan 20.00, \
     resolution 21.00, peephole 25.00\n\
     pipeline times (ms): copyprop 22.00, dce 23.00, motion 24.00, slots \
     26.00\n\
     gc: 27 minor words (28 promoted, 29 major), 30 minor / 31 major \
     collections"
    (Format.asprintf "%a" Lsra.Stats.pp s)

let test_pipeline_runs_dce () =
  (* pipeline must remove dead code before allocating *)
  let machine = Machine.small () in
  let b = B.create ~name:"main" in
  let t = B.temp b Rclass.Int in
  let dead = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 5;
  B.li b dead 7;
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp t);
  B.ret b;
  let f = B.finish b in
  let prog = prog_of_func f in
  ignore
    (Lsra.Allocator.pipeline ~verify:true
       Lsra.Allocator.default_second_chance machine prog);
  let f' = Program.find_exn prog "main" in
  (* the dead li is gone, and move optimisation turns the return move
     into a removable self-move, so at most the live li (+ possibly one
     move) remains *)
  Alcotest.(check bool) "dead li eliminated" true
    (Array.length (Block.body (Cfg.block (Func.cfg f') "entry")) <= 2)

let test_pipeline_verifies_all_algorithms () =
  let machine = Machine.small ~int_regs:5 ~float_regs:5 () in
  let f = pressure_func ~width:7 ~iters:4 in
  List.iter
    (fun algo ->
      let prog = prog_of_func (Func.copy f) in
      (* must not raise *)
      ignore (Lsra.Allocator.pipeline ~verify:true algo machine prog))
    Lsra.Allocator.heuristics

let test_pipeline_cleanup_verifies () =
  (* verify + full cleanup must compose: every pass's output is
     re-verified, and the cleaned program must still execute
     identically *)
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let f = pressure_func ~width:8 ~iters:5 in
  let prog = prog_of_func f in
  let reference = Lsra_sim.Interp.run machine prog ~input:"" in
  let copy = Program.copy prog in
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:Lsra.Passes.all
       Lsra.Allocator.default_second_chance machine copy);
  match reference, Lsra_sim.Interp.run machine copy ~input:"" with
  | Ok a, Ok b ->
    Alcotest.(check string) "ret"
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string b.Lsra_sim.Interp.ret)
  | Error e, _ | _, Error e -> Alcotest.failf "trapped: %s" e

let test_passes_parse () =
  let roundtrip spec =
    match Lsra.Passes.parse spec with
    | Error e -> Alcotest.failf "parse %S: %s" spec e
    | Ok ps -> Lsra.Passes.to_spec ps
  in
  Alcotest.(check string) "all" "copyprop,dce,motion,peephole,slots"
    (roundtrip "all");
  Alcotest.(check string) "default" "dce,peephole" (roundtrip "default");
  Alcotest.(check string) "none" "none" (roundtrip "none");
  Alcotest.(check string) "list is normalized to canonical order"
    "dce,motion,slots"
    (roundtrip "slots,dce,motion,dce");
  Alcotest.(check bool) "unknown pass rejected" true
    (match Lsra.Passes.parse "dce,frobnicate" with
    | Error _ -> true
    | Ok _ -> false);
  let pass_t = Alcotest.testable Fmt.(using Lsra.Passes.name string) ( = ) in
  List.iter
    (fun p ->
      Alcotest.(check (option pass_t))
        (Lsra.Passes.name p ^ " round-trips") (Some p)
        Lsra.Passes.(of_name (name p)))
    Lsra.Passes.all;
  (* a shuffled list with duplicates comes back as the canonical
     filter over [all]: in order, each pass once *)
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let ps =
      List.filter_map
        (fun _ ->
          if Random.State.int rng 4 = 0 then None
          else Some (List.nth Lsra.Passes.all (Random.State.int rng 5)))
        (List.init 8 Fun.id)
    in
    Alcotest.(check (list pass_t))
      (String.concat "," (List.map Lsra.Passes.name ps) ^ " normalized")
      (List.filter (fun p -> List.mem p ps) Lsra.Passes.all)
      (Lsra.Passes.normalize ps)
  done

let test_pipeline_empty_passes () =
  (* ~passes:[] really runs nothing around the allocation: dead code
     survives, and no Pass_begin event is traced *)
  let machine = Machine.small () in
  let mk () =
    let b = B.create ~name:"main" in
    let t = B.temp b Rclass.Int in
    let dead = B.temp b Rclass.Int in
    B.start_block b "entry";
    B.li b t 5;
    B.li b dead 7;
    B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp t);
    B.ret b;
    prog_of_func (B.finish b)
  in
  let bare = mk () in
  let trace = Lsra.Trace.create () in
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:[] ~trace
       Lsra.Allocator.default_second_chance machine bare);
  let f' = Program.find_exn bare "main" in
  Alcotest.(check int) "dead li survives without dce" 3
    (Array.length (Block.body (Cfg.block (Func.cfg f') "entry")));
  let pass_events =
    List.filter
      (fun (e : Lsra.Trace.event) ->
        match e with
        | Lsra.Trace.Pass_begin _ | Lsra.Trace.Pass_end _ -> true
        | _ -> false)
      (Lsra.Trace.events trace)
  in
  Alcotest.(check int) "no pass events" 0 (List.length pass_events)

let test_pipeline_check_each_order () =
  (* the caller's oracle runs after every pre pass, after allocation
     (None), and after every post pass — in pipeline order *)
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let prog = prog_of_func (pressure_func ~width:8 ~iters:5) in
  let seen = ref [] in
  let check_each pass _prog = seen := pass :: !seen in
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:Lsra.Passes.all ~check_each
       Lsra.Allocator.default_second_chance machine prog);
  let got =
    List.rev_map
      (function
        | None -> "alloc" | Some p -> Lsra.Passes.name p)
      !seen
  in
  Alcotest.(check (list string)) "oracle sandwich order"
    [ "copyprop"; "dce"; "alloc"; "motion"; "peephole"; "slots" ]
    got

let test_pipeline_trace_brackets () =
  (* every managed pass is bracketed by Pass_begin/Pass_end in the trace,
     and the stream stays well-formed *)
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let prog = prog_of_func (pressure_func ~width:8 ~iters:5) in
  let trace = Lsra.Trace.create () in
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:Lsra.Passes.all ~trace
       Lsra.Allocator.default_second_chance machine prog);
  (match Lsra.Trace.well_formed (Lsra.Trace.events trace) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace not well-formed: %s" e);
  let begins, ends =
    List.fold_left
      (fun (b, e) (ev : Lsra.Trace.event) ->
        match ev with
        | Lsra.Trace.Pass_begin { pass } -> (pass :: b, e)
        | Lsra.Trace.Pass_end { pass; _ } -> (b, pass :: e)
        | _ -> (b, e))
      ([], []) (Lsra.Trace.events trace)
  in
  Alcotest.(check (list string)) "pass begins, in order"
    [ "copyprop"; "dce"; "motion"; "peephole"; "slots" ]
    (List.rev begins);
  Alcotest.(check (list string)) "matching ends" (List.rev begins)
    (List.rev ends)

let test_pipeline_records_pass_times () =
  (* each managed pass books wall time under its own stats counter *)
  let machine = Machine.small ~int_regs:4 ~float_regs:4 () in
  let prog = prog_of_func (pressure_func ~width:8 ~iters:5) in
  let stats =
    Lsra.Allocator.pipeline ~passes:Lsra.Passes.all
      Lsra.Allocator.default_second_chance machine prog
  in
  List.iter
    (fun p ->
      let i = Lsra.Stats.pass_index (Lsra.Passes.stats_pass p) in
      Alcotest.(check bool) (Lsra.Passes.name p ^ " time booked") true
        (stats.Lsra.Stats.pass_time.(i) >= 0.))
    Lsra.Passes.all

let test_parallel_allocation_deterministic () =
  (* run_program ~jobs must produce the very same allocated program and
     the same merged counters as the sequential path, on every corpus
     program: Specbench, Minilang and the pressure modules *)
  let machine = Machine.alpha_like in
  List.iter
    (fun { Lsra_sim.Sweep.name; program; input = _ } ->
      let seq = Program.copy program in
      let par = Program.copy program in
      let s_seq =
        Lsra.Allocator.run_program Lsra.Allocator.default_second_chance
          machine seq
      in
      let s_par =
        Lsra.Allocator.run_program ~jobs:4
          Lsra.Allocator.default_second_chance machine par
      in
      Alcotest.(check string)
        (name ^ ": identical allocated program")
        (Lsra_text.Ir_text.to_string seq)
        (Lsra_text.Ir_text.to_string par);
      Alcotest.(check int)
        (name ^ ": same spill total")
        (Lsra.Stats.total_spill s_seq)
        (Lsra.Stats.total_spill s_par);
      Alcotest.(check int)
        (name ^ ": same slots")
        s_seq.Lsra.Stats.slots s_par.Lsra.Stats.slots;
      Alcotest.(check int)
        (name ^ ": same dataflow rounds")
        s_seq.Lsra.Stats.dataflow_rounds s_par.Lsra.Stats.dataflow_rounds)
    (Lsra_sim.Sweep.corpus ~scale:1 machine)

(* Every counter of a Stats record except times and GC readings. *)
let counters (s : Lsra.Stats.t) =
  Lsra.Stats.
    [
      s.evict_loads; s.evict_stores; s.evict_moves; s.resolve_loads;
      s.resolve_stores; s.resolve_moves; s.slots; s.frame_saved;
      s.dataflow_rounds; s.coloring_iterations; s.interference_edges;
      s.coalesced_moves; s.downgrades; s.opt_nodes; s.opt_proven;
    ]

let test_pipeline_liveness_handover () =
  (* The pipeline hands DCE's liveness to the allocator; the result must
     be byte for byte that of a separate DCE pass and run_program, which
     solves liveness again, for every allocator and with domains. The
     default-budget exact allocator adopts its rungs where the sweep's
     2,000-node one trips, so the rungs must take the solution too. *)
  let programs m =
    List.map
      (fun (c : Lsra_workloads.Specbench.case) ->
        (c.Lsra_workloads.Specbench.name, c.Lsra_workloads.Specbench.program))
      (Lsra_workloads.Specbench.all m ~scale:1)
    @ List.init 4 (fun seed ->
          ( Printf.sprintf "gen:%d" seed,
            Lsra_workloads.Gen.program
              ~params:{ Lsra_workloads.Gen.default_params with seed }
              m ))
  in
  List.iter
    (fun (mname, m) ->
      List.iter
        (fun (pname, prog) ->
          List.iter
            (fun algo ->
              List.iter
                (fun jobs ->
                  let name =
                    Printf.sprintf "%s/%s/%s/-j%d" mname pname
                      (Lsra.Allocator.short_name algo) jobs
                  in
                  let handed = Program.copy prog in
                  let s_handed =
                    Lsra.Allocator.pipeline ~passes:[ Lsra.Passes.Dce ] ~jobs
                      algo m handed
                  in
                  let separate = Program.copy prog in
                  let s_separate = Lsra.Stats.create () in
                  ignore
                    (Lsra.Passes.run_pass ~stats:s_separate Lsra.Passes.Dce
                       separate);
                  Lsra.Stats.add ~into:s_separate
                    (Lsra.Allocator.run_program ~jobs algo m separate);
                  Alcotest.(check string)
                    (name ^ ": allocated program")
                    (Lsra_text.Ir_text.to_string separate)
                    (Lsra_text.Ir_text.to_string handed);
                  Alcotest.(check (list int))
                    (name ^ ": counters") (counters s_separate)
                    (counters s_handed);
                  Alcotest.(check (float 0.))
                    (name ^ ": no liveness solve after DCE") 0.
                    s_handed.Lsra.Stats.pass_time.(Lsra.Stats.pass_index
                                                     Lsra.Stats.Liveness))
                [ 1; 4 ])
            (Lsra_sim.Sweep.oracle_algorithms
            @ [ Lsra.Allocator.default_optimal ]))
        (programs m))
    [ ("alpha", Machine.alpha_like); ("small-8", Lsra_sim.Sweep.small_8) ]

(* [Allocator.run] owns the liveness solve: without a hand-over it
   solves once and charges the solve to [Stats.Liveness], whatever the
   allocator; with one, nothing is charged there. *)
let test_liveness_charged_once () =
  let m = Machine.small () in
  let f = pressure_func ~width:6 ~iters:3 in
  let words s =
    s.Lsra.Stats.pass_minor_words.(Lsra.Stats.pass_index Lsra.Stats.Liveness)
  in
  List.iter
    (fun algo ->
      let name = Lsra.Allocator.short_name algo in
      let own = Lsra.Allocator.run algo m (Func.copy f) in
      Alcotest.(check bool)
        (name ^ ": own solve charged to liveness") true (words own > 0.);
      let g = Func.copy f in
      let handed =
        Lsra.Allocator.run ~liveness:(Lsra_analysis.Liveness.compute g) algo m g
      in
      Alcotest.(check (float 0.))
        (name ^ ": nothing charged after a hand-over") 0. (words handed))
    Lsra.Allocator.all

let test_allocator_names () =
  Alcotest.(check string) "binpack short name" "binpack"
    (Lsra.Allocator.short_name Lsra.Allocator.default_second_chance);
  Alcotest.(check bool) "names are distinct" true
    (List.length
       (List.sort_uniq compare
          (List.map Lsra.Allocator.short_name Lsra.Allocator.heuristics))
    = 4)

let suite =
  [
    Alcotest.test_case "peephole removes self-moves and nops" `Quick
      test_peephole_self_moves;
    Alcotest.test_case "peephole keeps real moves" `Quick
      test_peephole_keeps_real_moves;
    Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
    Alcotest.test_case "stats pp pinned" `Quick test_stats_pp_pin;
    Alcotest.test_case "pipeline runs dce" `Quick test_pipeline_runs_dce;
    Alcotest.test_case "pipeline verifies all algorithms" `Quick
      test_pipeline_verifies_all_algorithms;
    Alcotest.test_case "pipeline cleanup composes with verify" `Quick
      test_pipeline_cleanup_verifies;
    Alcotest.test_case "passes parse round-trips" `Quick test_passes_parse;
    Alcotest.test_case "pipeline with empty pass list runs nothing" `Quick
      test_pipeline_empty_passes;
    Alcotest.test_case "pipeline oracle sandwich order" `Quick
      test_pipeline_check_each_order;
    Alcotest.test_case "pipeline trace brackets every pass" `Quick
      test_pipeline_trace_brackets;
    Alcotest.test_case "pipeline records per-pass times" `Quick
      test_pipeline_records_pass_times;
    Alcotest.test_case "parallel allocation is deterministic" `Quick
      test_parallel_allocation_deterministic;
    Alcotest.test_case "pipeline liveness handover is exact" `Quick
      test_pipeline_liveness_handover;
    Alcotest.test_case "liveness is charged once, by Allocator.run" `Quick
      test_liveness_charged_once;
    Alcotest.test_case "allocator names" `Quick test_allocator_names;
  ]
