(* lsra_tool: command-line driver over the library.

     alloc  — parse a textual program, register-allocate it, print it
     run    — interpret a program (before or after allocation)
     stats  — allocate and report static + dynamic spill statistics
     gen    — emit a random well-defined program
     case   — emit one of the paper's synthetic benchmarks
*)

open Lsra_ir
open Lsra_target
open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let machine_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "alpha" ] -> Ok Machine.alpha_like
    | [ "small" ] -> Ok (Machine.small ())
    | [ "small"; ints; floats ] -> (
      match int_of_string_opt ints, int_of_string_opt floats with
      | Some i, Some f when i >= 3 && f >= 3 ->
        Ok
          (Machine.small ~int_regs:i ~float_regs:f
             ~int_caller_saved:(max 2 (i / 2))
             ~float_caller_saved:(max 2 (f / 2))
             ())
      | _ -> Error (`Msg "expected small:<ints>:<floats> with counts >= 3"))
    | _ -> Error (`Msg (Printf.sprintf "unknown machine %S" s))
  in
  let print fmt m = Format.pp_print_string fmt (Machine.name m) in
  Arg.conv (parse, print)

let algo_conv =
  let parse s =
    match s with
    | "binpack" | "second-chance" -> Ok Lsra.Allocator.default_second_chance
    | "gc" | "coloring" -> Ok Lsra.Allocator.Graph_coloring
    | "twopass" -> Ok Lsra.Allocator.Two_pass
    | "poletto" -> Ok Lsra.Allocator.Poletto
    | "optimal" | "exact" -> Ok Lsra.Allocator.default_optimal
    | _ -> Error (`Msg (Printf.sprintf "unknown allocator %S" s))
  in
  let print fmt a = Format.pp_print_string fmt (Lsra.Allocator.short_name a) in
  Arg.conv (parse, print)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input program ('-' for stdin).")

let machine_arg =
  Arg.(
    value
    & opt machine_conv Machine.alpha_like
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Target machine: alpha, small, or small:INTS:FLOATS.")

let algo_arg =
  Arg.(
    value
    & opt algo_conv Lsra.Allocator.default_second_chance
    & info [ "a"; "allocator" ] ~docv:"ALGO"
        ~doc:"Allocator: binpack, gc, twopass, poletto or optimal.")

let opt_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "opt-budget" ] ~docv:"NODES"
        ~doc:
          "Branch-and-bound node budget for $(b,-a optimal); a function \
           that exhausts it degrades to graph coloring (counted as a \
           downgrade in the statistics). Ignored by every other \
           allocator.")

(* The allocator argument with --opt-budget folded in: the budget only
   means something for the exact allocator, so it adjusts the algorithm
   value rather than travelling separately. *)
let algo_term =
  Term.(
    const (fun algo budget ->
        match (algo, budget) with
        | Lsra.Allocator.Optimal opts, Some node_budget ->
          Lsra.Allocator.Optimal { opts with Lsra.Optimal.node_budget }
        | algo, _ -> algo)
    $ algo_arg $ opt_budget_arg)

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Check the allocation with the abstract verifier.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Allocate functions on $(docv) domains in parallel (0 picks a \
           count for this host). The output is identical to -j 1.")

let passes_conv =
  let parse s =
    match Lsra.Passes.parse s with Ok ps -> Ok ps | Error m -> Error (`Msg m)
  in
  let print fmt ps = Format.pp_print_string fmt (Lsra.Passes.to_spec ps) in
  Arg.conv (parse, print)

let passes_arg ~default =
  Arg.(
    value
    & opt passes_conv default
    & info [ "passes" ] ~docv:"PASSES"
        ~doc:
          "Pipeline passes around allocation: $(b,all), $(b,none), \
           $(b,default) (dce,peephole — the paper's §3 pipeline), \
           $(b,cleanup) (default + motion,slots), or a comma-separated \
           subset of copyprop, dce, motion, peephole, slots. Passes always \
           run in canonical pipeline order.")

let no_cleanup_arg =
  Arg.(
    value & flag
    & info [ "no-cleanup" ]
        ~doc:
          "Drop every post-allocation cleanup pass (motion, peephole, \
           slots) from the selected pass set; pre-allocation passes are \
           kept.")

let resolve_passes passes no_cleanup =
  if no_cleanup then List.filter Lsra.Passes.is_pre passes else passes

let load file = Lsra_text.Ir_text.of_string (read_input file)

(* Exit codes: 1 = bad input (parse/malformed/trap), 2 = cmdliner usage,
   3 = the abstract verifier rejected an allocation, 4 = the differential
   oracle found a divergence. *)
let exit_verify_failed = 3
let exit_divergence = 4

let handle_errors f =
  try f () with
  | Lsra_frontend.Parser.Error { line; msg } ->
    Printf.eprintf "minilang parse error at line %d: %s\n" line msg;
    exit 1
  | Lsra_frontend.Lower.Error msg ->
    Printf.eprintf "minilang error: %s\n" msg;
    exit 1
  | Lsra_text.Ir_text.Parse_error { line; msg } ->
    Printf.eprintf "parse error at line %d: %s\n" line msg;
    exit 1
  | Cfg.Malformed msg ->
    Printf.eprintf "malformed program: %s\n" msg;
    exit 1
  | Lsra.Verify.Mismatch { fn; block; where; what } ->
    Printf.eprintf
      "verification failed in function '%s', block '%s', at '%s': %s\n" fn
      block where what;
    exit exit_verify_failed
  | Lsra.Precheck.Rejected msg ->
    Printf.eprintf "input rejected: %s\n" msg;
    exit 1

let alloc_cmd =
  let run file machine algo verify jobs passes no_cleanup =
    handle_errors (fun () ->
        let prog = load file in
        let passes = resolve_passes passes no_cleanup in
        ignore
          (Lsra.Allocator.pipeline ~precheck:true ~verify ~passes ~jobs algo
             machine prog);
        print_string (Lsra_text.Ir_text.to_string prog))
  in
  Cmd.v
    (Cmd.info "alloc" ~doc:"Register-allocate a program and print it.")
    Term.(
      const run $ file_arg $ machine_arg $ algo_term $ verify_arg $ jobs_arg
      $ passes_arg ~default:Lsra.Passes.default
      $ no_cleanup_arg)

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "input" ] ~docv:"STRING" ~doc:"Input fed to ext_getc.")

let fuel_arg =
  Arg.(
    value
    & opt int 200_000_000
    & info [ "fuel" ] ~doc:"Maximum dynamic instructions before aborting.")

let run_cmd =
  let run file machine input fuel =
    handle_errors (fun () ->
        let prog = load file in
        match Lsra_sim.Interp.run ~fuel machine prog ~input with
        | Ok o ->
          print_string o.Lsra_sim.Interp.output;
          Printf.printf "; ret = %s\n"
            (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret);
          Printf.printf "; instructions = %d, cycles = %d, spills = %d\n"
            o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
            o.Lsra_sim.Interp.counts.Lsra_sim.Interp.cycles
            (Lsra_sim.Interp.spill_total o.Lsra_sim.Interp.counts)
        | Error e ->
          Printf.eprintf "trap: %s\n" e;
          exit 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a program and print its output.")
    Term.(const run $ file_arg $ machine_arg $ input_arg $ fuel_arg)

let stats_cmd =
  let run file machine algo input jobs passes no_cleanup =
    handle_errors (fun () ->
        let prog = load file in
        let passes = resolve_passes passes no_cleanup in
        let stats =
          Lsra.Allocator.pipeline ~precheck:true ~verify:true ~passes ~jobs
            algo machine prog
        in
        Format.printf "static allocation statistics:@.%a@." Lsra.Stats.pp
          stats;
        Printf.printf "allocation time: %.6fs\n" stats.Lsra.Stats.alloc_time;
        match Lsra_sim.Interp.run machine prog ~input with
        | Ok o ->
          let c = o.Lsra_sim.Interp.counts in
          Printf.printf
            "dynamic: %d instructions, %d cycles, %d spill (%.3f%%)\n"
            c.Lsra_sim.Interp.total c.Lsra_sim.Interp.cycles
            (Lsra_sim.Interp.spill_total c)
            (100.0
            *. float_of_int (Lsra_sim.Interp.spill_total c)
            /. float_of_int (max 1 c.Lsra_sim.Interp.total))
        | Error e -> Printf.printf "dynamic: trapped (%s)\n" e)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Allocate, verify, and report static and dynamic statistics.")
    Term.(
      const run $ file_arg $ machine_arg $ algo_term $ input_arg $ jobs_arg
      $ passes_arg ~default:Lsra.Passes.default
      $ no_cleanup_arg)

let gen_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let size_arg =
    Arg.(value & opt int 20 & info [ "size" ] ~doc:"Statements per function.")
  in
  let run machine seed size =
    let params =
      {
        Lsra_workloads.Gen.default_params with
        Lsra_workloads.Gen.seed;
        n_stmts = size;
      }
    in
    let prog = Lsra_workloads.Gen.program ~params machine in
    print_string (Lsra_text.Ir_text.to_string prog)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a random well-defined program.")
    Term.(const run $ machine_arg $ seed_arg $ size_arg)

let case_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Benchmark name: alvinn doduc eqntott espresso fpppp li tomcatv \
             compress m88ksim sort wc.")
  in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale factor.")
  in
  let run machine name scale =
    match Lsra_workloads.Specbench.find machine ~scale name with
    | Some case ->
      print_string
        (Lsra_text.Ir_text.to_string case.Lsra_workloads.Specbench.program)
    | None ->
      Printf.eprintf "unknown benchmark %S\n" name;
      exit 1
  in
  Cmd.v
    (Cmd.info "case" ~doc:"Emit one of the paper's synthetic benchmarks.")
    Term.(const run $ machine_arg $ name_arg $ scale_arg)

let compile_cmd =
  let run file machine =
    handle_errors (fun () ->
        let prog = Lsra_frontend.Minilang.compile machine (read_input file) in
        print_string (Lsra_text.Ir_text.to_string prog))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a Minilang source file to the textual IR.")
    Term.(const run $ file_arg $ machine_arg)

let exec_cmd =
  let run file machine algo input passes no_cleanup =
    handle_errors (fun () ->
        let prog = Lsra_frontend.Minilang.compile machine (read_input file) in
        let passes = resolve_passes passes no_cleanup in
        ignore
          (Lsra.Allocator.pipeline ~precheck:true ~verify:true ~passes algo
             machine prog);
        match Lsra_sim.Interp.run machine prog ~input with
        | Ok o ->
          print_string o.Lsra_sim.Interp.output;
          exit
            (match o.Lsra_sim.Interp.ret with
            | Lsra_sim.Value.Int k -> k land 127
            | Lsra_sim.Value.Flt _ | Lsra_sim.Value.Undef -> 0)
        | Error e ->
          Printf.eprintf "trap: %s\n" e;
          exit 1)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Compile a Minilang source file, register-allocate it (verified) \
          and run it.")
    Term.(
      const run $ file_arg $ machine_arg $ algo_term $ input_arg
      $ passes_arg ~default:Lsra.Passes.default
      $ no_cleanup_arg)

(* The whole built-in corpus, as (name, program, input) triples: the
   eleven synthetic benchmarks, the Minilang corpus through the frontend,
   and the Table-3 pressure modules. *)
let corpus machine ~scale =
  List.map
    (fun (case : Lsra_workloads.Specbench.case) ->
      ( "spec:" ^ case.Lsra_workloads.Specbench.name,
        case.Lsra_workloads.Specbench.program,
        case.Lsra_workloads.Specbench.input ))
    (Lsra_workloads.Specbench.all machine ~scale)
  @ List.filter_map
      (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
        (* A small machine may not support a program's calling convention
           (e.g. too few argument registers); skip those entries there. *)
        match Lsra_frontend.Minilang.compile machine source with
        | prog -> Some ("mini:" ^ mname, prog, minput)
        | exception Lsra_frontend.Lower.Error _ -> None)
      Lsra_workloads.Mini_corpus.all
  @ List.map
      (fun shape ->
        ( "pressure:" ^ shape.Lsra_workloads.Pressure.sname,
          Lsra_workloads.Pressure.build machine shape,
          "" ))
      [
        Lsra_workloads.Pressure.cvrin;
        Lsra_workloads.Pressure.twldrv;
        Lsra_workloads.Pressure.fpppp;
      ]

let diffcheck_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program to check ('-' for stdin). Without it, the built-in \
             corpus (specbench + Minilang + pressure modules) is checked.")
  in
  let scale_arg =
    Arg.(
      value & opt int 1
      & info [ "scale" ] ~docv:"N" ~doc:"Corpus workload scale factor.")
  in
  (* With LSRA_DIFF_ARTIFACT_DIR set, every divergence leaves its shrunk
     reproducer there as textual IR, mirroring the fuzz-artifact
     convention, so a CI failure can be diagnosed from the upload alone. *)
  let artifact_dir = Sys.getenv_opt "LSRA_DIFF_ARTIFACT_DIR" in
  let write_artifact ~pname ~mname ~algo text =
    match artifact_dir with
    | None -> ()
    | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let sanitize s =
        String.map
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
            | _ -> '-')
          s
      in
      let path =
        Printf.sprintf "%s/%s_%s_%s.lsra" dir (sanitize pname)
          (sanitize mname) (sanitize algo)
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text);
      Printf.eprintf "  reproducer written to %s\n%!" path
  in
  let run file machine input fuel scale passes no_cleanup =
    handle_errors (fun () ->
        let passes = resolve_passes passes no_cleanup in
        let jobs =
          match file with
          | Some f -> [ (machine, [ ("file:" ^ f, load f, input) ]) ]
          | None ->
            (* The given machine, plus a spill-heavy one so the oracle
               exercises eviction and resolution, not just renaming. *)
            let small7 =
              Machine.small ~int_regs:7 ~float_regs:7 ~int_caller_saved:4
                ~float_caller_saved:4 ()
            in
            [
              (machine, corpus machine ~scale);
              (small7, corpus small7 ~scale);
            ]
        in
        let checks = ref 0 and behavioral = ref 0 and rejects = ref 0 in
        let frame_saved = ref 0 in
        (* The exact allocator joins the sweep under a tight node
           budget: small functions are proven optimal, the rest take
           the budget-downgrade path — both paths covered without the
           full search on every corpus function (bench optgap does
           that). *)
        let allocators =
          List.map
            (function
              | Lsra.Allocator.Optimal o ->
                Lsra.Allocator.Optimal
                  { o with Lsra.Optimal.node_budget = 2_000 }
              | a -> a)
            Lsra.Allocator.all
        in
        List.iter
          (fun (m, programs) ->
            let mname = Machine.name m in
            let m_saved = ref 0 in
            List.iter
              (fun (pname, prog, inp) ->
                List.iter
                  (fun algo ->
                    incr checks;
                    match
                      Lsra_sim.Diffexec.check_pipeline ~fuel ~input:inp
                        ~passes m algo prog
                    with
                    | Ok stats ->
                      m_saved := !m_saved + stats.Lsra.Stats.frame_saved
                    | Error d ->
                      if Lsra_sim.Diffexec.is_verifier_reject d then
                        incr rejects
                      else incr behavioral;
                      Printf.eprintf "DIVERGENCE %s on %s under %s: %s\n%!"
                        pname mname
                        (Lsra.Allocator.short_name algo)
                        (Lsra_sim.Diffexec.divergence_to_string d);
                      (* Minimise with the same full-pipeline oracle and
                         dump the reproducer, as the fuzzer would. *)
                      let small =
                        Lsra_sim.Diffexec.shrink_pipeline ~input:inp ~passes
                          m algo prog
                      in
                      let text = Lsra_text.Ir_text.to_string small in
                      Printf.eprintf "minimal reproducer:\n%s%!" text;
                      write_artifact ~pname ~mname
                        ~algo:(Lsra.Allocator.short_name algo)
                        text)
                  allocators)
              programs;
            if !m_saved > 0 then
              Printf.printf "diffcheck: %s: %d frame words saved by slots\n"
                mname !m_saved;
            frame_saved := !frame_saved + !m_saved)
          jobs;
        Printf.printf
          "diffcheck: %d checks (passes: %s), %d divergences (%d verifier \
           rejects), %d frame words saved\n"
          !checks
          (Lsra.Passes.to_spec passes)
          (!behavioral + !rejects)
          !rejects !frame_saved;
        (* Exit-code contract: behavioral divergences (wrong output, traps,
           allocator exceptions, trace mismatches — from allocation or any
           cleanup pass) dominate and exit 4; a run whose only failures are
           abstract-verifier rejections exits 3, matching the
           [handle_errors] convention for Verify.Mismatch. *)
        if !behavioral > 0 then exit exit_divergence
        else if !rejects > 0 then exit exit_verify_failed)
  in
  Cmd.v
    (Cmd.info "diffcheck"
       ~doc:
         "Differential-execution oracle over the full pipeline: run \
          programs through the managed passes and every allocator, \
          re-interpreting and re-verifying after every pass (the \
          allocation also runs under a decision trace whose replay must \
          agree with the reported statistics). Divergences are shrunk to \
          minimal reproducers (written to $(b,LSRA_DIFF_ARTIFACT_DIR) \
          when set). Exits 4 on any behavioral divergence, 3 when only \
          the abstract verifier rejected.")
    Term.(
      const run $ file_arg $ machine_arg $ input_arg $ fuel_arg $ scale_arg
      $ passes_arg ~default:Lsra.Passes.all
      $ no_cleanup_arg)

let jit_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program to compile and execute natively ('-' for stdin). \
             Without it, the built-in corpus plus hostile fuzz seeds are \
             swept through every allocator and cross-checked against the \
             interpreter.")
  in
  let fn_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FN"
          ~doc:
            "With $(b,--dump-asm), only disassemble this function \
             (default: everything, including the entry stub).")
  in
  let dump_asm_arg =
    Arg.(
      value & flag
      & info [ "dump-asm" ]
          ~doc:
            "Print the annotated listing of the emitted machine code \
             (works on any host; execution still requires x86-64).")
  in
  let scale_arg =
    Arg.(
      value & opt int 1
      & info [ "scale" ] ~docv:"N" ~doc:"Corpus workload scale factor.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 4
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Number of hostile (call-dense, deep-spill) fuzz programs \
             added to the corpus sweep.")
  in
  let run file fn machine algo input fuel passes no_cleanup dump_asm scale
      seeds =
    handle_errors (fun () ->
        let passes = resolve_passes passes no_cleanup in
        match file with
        | Some f ->
          (* Single-program mode: allocate, emit, optionally disassemble,
             then execute in process. *)
          let prog = load f in
          ignore
            (Lsra.Allocator.pipeline ~precheck:true ~verify:false ~passes
               algo machine prog);
          (match Lsra_native.Lower.compile machine prog with
          | Error e ->
            Printf.eprintf "emission failed: %s\n" e;
            exit 1
          | Ok compiled ->
            if dump_asm then
              print_string (Lsra_native.Lower.dump_asm ?fn compiled);
            if not (Lsra_native.Exec.available ()) then (
              Printf.eprintf
                "jit: host is not x86-64; emitted %d bytes but cannot \
                 execute them\n"
                (Bytes.length compiled.Lsra_native.Lower.code);
              if not dump_asm then exit 1)
            else
              let o =
                Lsra_native.Exec.run_compiled ~fuel ~input compiled
                  ~heap_words:(Program.heap_words prog)
              in
              print_string o.Lsra_native.Exec.output;
              (match o.Lsra_native.Exec.trap with
              | Some t ->
                Printf.eprintf "native trap: %s\n" t;
                exit 1
              | None -> ());
              Printf.printf "; ret = %d\n" o.Lsra_native.Exec.ret;
              Printf.printf "; code = %d bytes, fuel left = %d\n"
                o.Lsra_native.Exec.code_bytes o.Lsra_native.Exec.fuel_left)
        | None ->
          (* Sweep mode: the diffcheck corpus on the given machine plus a
             spill-heavy one, and hostile generated programs, through
             every allocator — each compared against the interpreter by
             the native oracle. Divergences gate the exit code at 4. *)
          if not (Lsra_sim.Diffexec.native_available ()) then (
            Printf.printf
              "jit: native execution unavailable on this host (not \
               x86-64); nothing checked\n";
            exit 0);
          let small7 =
            Machine.small ~int_regs:7 ~float_regs:7 ~int_caller_saved:4
              ~float_caller_saved:4 ()
          in
          let hostile m =
            List.init seeds (fun i ->
                let params =
                  Lsra_workloads.Gen.hostile_params ~seed:(1000 + i)
                in
                ( Printf.sprintf "hostile:%d" (1000 + i),
                  Lsra_workloads.Gen.program ~params m,
                  "" ))
          in
          let jobs =
            [
              (machine, corpus machine ~scale @ hostile machine);
              (small7, corpus small7 ~scale @ hostile small7);
            ]
          in
          let allocators =
            List.map
              (function
                | Lsra.Allocator.Optimal o ->
                  Lsra.Allocator.Optimal
                    { o with Lsra.Optimal.node_budget = 2_000 }
                | a -> a)
              Lsra.Allocator.all
          in
          let checks = ref 0
          and ok = ref 0
          and skipped = ref 0
          and diverged = ref 0
          and bytes = ref 0 in
          let skip_reasons : (string, int) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (m, programs) ->
              let mname = Machine.name m in
              List.iter
                (fun (pname, prog, inp) ->
                  List.iter
                    (fun a ->
                      incr checks;
                      match
                        Lsra_sim.Diffexec.check_native ~fuel ~input:inp
                          ~passes m a prog
                      with
                      | Lsra_sim.Diffexec.Native_ok { code_bytes } ->
                        incr ok;
                        bytes := !bytes + code_bytes
                      | Lsra_sim.Diffexec.Native_skipped why ->
                        incr skipped;
                        Hashtbl.replace skip_reasons why
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt skip_reasons why))
                      | Lsra_sim.Diffexec.Native_diverged why ->
                        incr diverged;
                        Printf.eprintf
                          "NATIVE DIVERGENCE %s on %s under %s: %s\n%!"
                          pname mname
                          (Lsra.Allocator.short_name a)
                          why)
                    allocators)
                programs)
            jobs;
          Printf.printf
            "jit: %d checks (passes: %s), %d native runs ok (%d bytes \
             emitted), %d skipped, %d divergences\n"
            !checks
            (Lsra.Passes.to_spec passes)
            !ok !bytes !skipped !diverged;
          Hashtbl.iter
            (fun why n -> Printf.printf "jit:   skipped %dx: %s\n" n why)
            skip_reasons;
          if !diverged > 0 then exit exit_divergence)
  in
  Cmd.v
    (Cmd.info "jit"
       ~doc:
         "Emit x86-64 machine code for an allocated program and execute \
          it in process. With $(i,FILE): allocate, emit (optionally \
          $(b,--dump-asm)) and run, printing the program's output and \
          return value. Without $(i,FILE): sweep the built-in corpus \
          plus hostile call-dense fuzz programs through every allocator, \
          executing each natively and requiring output and return value \
          to match the interpreter byte for byte; exits 4 on any \
          divergence. On non-x86-64 hosts the sweep skips with a notice \
          and $(b,--dump-asm) still works.")
    Term.(
      const run $ file_arg $ fn_arg $ machine_arg $ algo_term $ input_arg
      $ fuel_arg
      $ passes_arg ~default:Lsra.Passes.all
      $ no_cleanup_arg $ dump_asm_arg $ scale_arg $ seeds_arg)

let trace_cmd =
  let fn_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FN"
          ~doc:"Only print the trace of this function (default: all).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("jsonl", `Jsonl) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (indented) or $(b,jsonl) (one JSON \
                object per event).")
  in
  let run file fn machine algo format =
    handle_errors (fun () ->
        let prog = load file in
        List.iter
          (fun (_, f) -> Lsra.Precheck.run machine f)
          (Program.funcs prog);
        (match fn with
        | Some n when not (List.mem_assoc n (Program.funcs prog)) ->
          Printf.eprintf "no function named '%s' in %s\n" n file;
          exit 1
        | Some _ | None -> ());
        (* No DCE: the trace describes the program exactly as written. *)
        let t = Lsra.Trace.create () in
        let stats = Lsra.Allocator.run_program ~trace:t algo machine prog in
        let evs = Lsra.Trace.events t in
        let shown =
          match fn with None -> evs | Some n -> Lsra.Trace.filter_fn n evs
        in
        print_string
          (match format with
          | `Text -> Lsra.Trace.to_text shown
          | `Jsonl -> Lsra.Trace.to_jsonl shown);
        (* Self-check: the full stream must replay to the reported stats. *)
        match Lsra.Trace.replay_check evs stats with
        | Ok () -> ()
        | Error e ->
          Printf.eprintf "trace replay mismatch: %s\n" e;
          exit 1)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Register-allocate a program under a decision trace and print the \
          event stream: interval starts and expiries, assignments with the \
          rule that granted them, spill splits, second chances, eviction \
          deliberations and resolution edge repairs. The stream is \
          replay-checked against the allocator's statistics before exiting.")
    Term.(const run $ file_arg $ fn_arg $ machine_arg $ algo_term $ format_arg)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve over a Unix-domain socket bound at $(docv) instead of \
             stdin/stdout: up to $(b,--max-clients) connections are served \
             at once until a QUIT frame.")
  in
  let cache_bytes_arg =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"N"
          ~doc:"Result-cache payload budget in bytes (0 disables caching).")
  in
  let cache_entries_arg =
    Arg.(
      value & opt int 4096
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result-cache entry budget (0 disables caching).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity: reaching it processes the \
             pending batch even without a FLUSH frame.")
  in
  let spot_check_arg =
    Arg.(
      value & opt int 0
      & info [ "spot-check" ] ~docv:"N"
          ~doc:
            "Re-allocate every $(docv)-th cache hit from scratch and \
             require byte-identical output (0 disables). A divergence is \
             reported as an ERR 4 frame and makes the server exit 4.")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the abstract verifier on cold fills (it is on by \
                default in serving mode).")
  in
  let store_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:
            "Persist completed allocations to an append-only journal under \
             $(docv) (created if missing) and warm-load the cache from it \
             at startup, so a restarted server answers from disk what the \
             previous one computed.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the in-memory cache and the persistent store $(docv)-way \
             by a restart-stable key hash. Separate server processes given \
             the same shard count agree on which shard owns a key, so they \
             compose behind a key-hashing router. A store directory must \
             always be reopened with the shard count it was created with.")
  in
  let store_sync_arg =
    let sync_conv =
      let parse = function
        | "never" -> Ok Lsra_service.Store.Never
        | "batch" -> Ok Lsra_service.Store.Batch
        | s ->
          Error
            (`Msg
              (Printf.sprintf "unknown sync mode %S (expected never or batch)"
                 s))
      in
      let print fmt m =
        Format.pp_print_string fmt
          (match m with
          | Lsra_service.Store.Never -> "never"
          | Lsra_service.Store.Batch -> "batch")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt sync_conv Lsra_service.Store.Never
      & info [ "store-sync" ] ~docv:"MODE"
          ~doc:
            "Journal durability for $(b,--store-dir). $(b,never) (the \
             default) flushes appends to the OS but does not fsync: a \
             process crash loses nothing, a power loss may lose the most \
             recent appends. $(b,batch) fsyncs every shard's journal at \
             each batch boundary, bounding power-loss exposure to the \
             in-flight batch at the cost of one fsync per shard per \
             batch.")
  in
  let max_clients_arg =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Maximum concurrent socket connections the multiplexer accepts \
             (socket mode only); further clients queue in the listen \
             backlog. Must be below 1024 (POSIX FD_SETSIZE): the \
             select-based multiplexer cannot watch descriptors past that \
             limit.")
  in
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Native-backend mode: every cold allocation must also emit \
             x86-64 machine code (an unemittable program answers ERR 4 \
             and is not cached), and cache keys carry the encoder \
             fingerprint, so native entries never collide with pure-IR \
             ones and an encoder change invalidates them wholesale. \
             Emission is host-independent; works on any machine.")
  in
  let run machine jobs socket cache_bytes cache_entries queue spot_check
      no_verify store_dir shards store_sync max_clients native =
    handle_errors (fun () ->
        (* Fail the impossible configuration at startup with a clear
           message, not mid-serve: select(2) cannot watch fds >=
           FD_SETSIZE, so such a server would accept clients it can
           never service. *)
        if max_clients >= 1024 then begin
          Printf.eprintf
            "serve: --max-clients %d exceeds what select(2) can watch \
             (FD_SETSIZE = 1024); use 1023 or fewer\n"
            max_clients;
          exit 2
        end;
        let cfg =
          {
            (Lsra_service.Service.default_config machine) with
            Lsra_service.Service.verify_cold = not no_verify;
            spot_check;
            cache_bytes;
            cache_entries;
            store_dir;
            shards;
            store_sync;
            native;
          }
        in
        let svc = Lsra_service.Service.create cfg in
        let sched =
          Lsra_service.Scheduler.create ~capacity:queue ~jobs svc
        in
        let severity =
          match socket with
          | None ->
            Lsra_service.Mux.serve_fds sched ~input:Unix.stdin
              ~output:Unix.stdout
          | Some path ->
            Lsra_service.Mux.serve_socket ~max_clients sched path
        in
        if severity > 0 then exit severity)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the allocation service: newline-framed textual-IR requests \
          (REQ frames with len=-prefixed bodies) over stdin/stdout or a \
          Unix socket, answered from a content-addressed result cache with \
          LRU eviction. One select-based loop serves stdin/stdout as a \
          single connection and, in socket mode, many connections at once; \
          the requests that arrive in one round of the loop, across every \
          connection, are allocated as one batch (FLUSH, STATS or a full \
          queue flush earlier), and both modes share the same frame caps. \
          With \
          $(b,--store-dir) the cache is journaled to disk and warm-loaded \
          on restart. Requests may carry a deadline-ms compile budget; \
          when the requested allocator's predicted time would blow it, the \
          service downgrades to a cheaper linear-scan variant (recorded in \
          the response header and the statistics). Exits 0 normally, 3 if \
          any cold allocation was rejected by the verifier, 4 if a cache \
          spot-check found a divergence.")
    Term.(
      const run $ machine_arg $ jobs_arg $ socket_arg $ cache_bytes_arg
      $ cache_entries_arg $ queue_arg $ spot_check_arg $ no_verify_arg
      $ store_dir_arg $ shards_arg $ store_sync_arg $ max_clients_arg
      $ native_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "lsra_tool" ~version:"1.0"
             ~doc:
               "Second-chance binpacking register allocation — tools over \
                the textual IR.")
          [
            alloc_cmd;
            run_cmd;
            stats_cmd;
            gen_cmd;
            case_cmd;
            compile_cmd;
            exec_cmd;
            diffcheck_cmd;
            jit_cmd;
            trace_cmd;
            serve_cmd;
          ]))
