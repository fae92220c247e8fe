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
module Sweep = Lsra_sim.Sweep
module Diffexec = Lsra_sim.Diffexec

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
    match Lsra.Allocator.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown allocator %S" s))
  in
  let print fmt a = Format.pp_print_string fmt (Lsra.Allocator.short_name a) in
  Arg.conv (parse, print)

(* A count that must be at least 1; anything else is a usage error. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg ~doc =
  Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"N" ~doc)

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

let load file = Lsra_text.Ir_text.of_string (read_input file)

(* [load], then {!Lsra.Precheck} on every function: for the commands that
   allocate without [Allocator.pipeline ~precheck:true]. *)
let load_checked ?allow_undefined machine file =
  let prog = load file in
  List.iter
    (fun (_, f) -> Lsra.Precheck.run ?allow_undefined machine f)
    (Program.funcs prog);
  prog

(* Exit codes: 1 = bad input (parse/malformed/trap), 2 = cmdliner usage,
   3 = the abstract verifier rejected an allocation, 4 = the differential
   oracle found a divergence. The sweeps take 3 and 4 from
   [Sweep.exit_code]. *)
let exit_verify_failed = 3

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
  let run file machine algo verify jobs passes =
    handle_errors (fun () ->
        let prog = load file in
        ignore
          (Lsra.Allocator.pipeline ~precheck:true ~verify ~passes ~jobs algo
             machine prog);
        print_string (Lsra_text.Ir_text.to_string prog))
  in
  Cmd.v
    (Cmd.info "alloc" ~doc:"Register-allocate a program and print it.")
    Term.(
      const run $ file_arg $ machine_arg $ algo_term $ verify_arg $ jobs_arg
      $ passes_arg ~default:Lsra.Passes.default)

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
  let run file machine algo input jobs passes =
    handle_errors (fun () ->
        let prog = load file in
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
        | Error e ->
          Printf.eprintf "trap: %s\n" e;
          exit 1)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Allocate, verify, and report static and dynamic statistics.")
    Term.(
      const run $ file_arg $ machine_arg $ algo_term $ input_arg $ jobs_arg
      $ passes_arg ~default:Lsra.Passes.default)

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
            ("Benchmark name: "
            ^ String.concat " " Lsra_workloads.Specbench.names
            ^ "."))
  in
  let run machine name scale =
    match Lsra_workloads.Specbench.find machine ~scale name with
    | Some case ->
      print_string
        (Lsra_text.Ir_text.to_string case.Lsra_workloads.Specbench.program)
    | None ->
      Printf.eprintf "unknown benchmark %S\n" name;
      exit 1
    | exception Lsra_workloads.Specbench.Unfit msg ->
      Printf.eprintf "%s does not fit the machine: %s\n" name msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "case" ~doc:"Emit one of the paper's synthetic benchmarks.")
    Term.(
      const run $ machine_arg $ name_arg
      $ scale_arg ~doc:"Workload scale factor.")

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
  let run file machine algo input passes =
    handle_errors (fun () ->
        let prog = Lsra_frontend.Minilang.compile machine (read_input file) in
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
      $ passes_arg ~default:Lsra.Passes.default)

let diffcheck_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program to check ('-' for stdin). Without it, the built-in \
             corpus (specbench + Minilang + pressure modules + hostile \
             generated programs) is checked on MACHINE and small:7:7, and \
             100 seeded generated programs on alpha, small-8 and tiny-4.")
  in
  (* With LSRA_DIFF_ARTIFACT_DIR set, every divergence leaves its
     reproducer and the diverging allocator's decision trace there, so a
     CI failure can be diagnosed from the upload alone. Only the first
     divergence of each allocator in each job is shrunk: a fault that
     breaks many cases would otherwise keep the sweep shrinking for
     hours; the later ones are written as they are. *)
  let artifact_dir = Sys.getenv_opt "LSRA_DIFF_ARTIFACT_DIR" in
  let run file machine input fuel scale passes =
    handle_errors (fun () ->
        let jobs =
          match file with
          | Some f ->
            (* Uses before definition stay in: the verifier half of the
               oracle must see them (test/fixtures/use_before_def.lsra). *)
            let program = load_checked ~allow_undefined:true machine f in
            let case = { Sweep.name = "file:" ^ f; program; input } in
            [ ("file", machine, [ case ], Sweep.oracle_algorithms) ]
          | None ->
            (* The given machine, plus a spill-heavy one so the oracle
               exercises eviction and resolution, not just renaming. The
               generated programs run under [Allocator.all]: the exact
               allocator's default node budget proves more of their
               functions than the oracle list's 2,000 nodes. *)
            List.map
              (fun m ->
                ("corpus", m, Sweep.corpus m ~scale @ Sweep.hostile m,
                 Sweep.oracle_algorithms))
              [ machine; Sweep.small_7_7 ]
            @ List.map
                (fun (_, m) ->
                  ("generated", m, Sweep.generated m, Lsra.Allocator.all))
                Sweep.fuzz_machines
        in
        if not (Lsra_native.Exec.available ()) then
          print_endline
            "diffcheck: host is not x86-64; the native stage is skipped";
        let tally = Sweep.tally () in
        let frame_saved = ref 0 in
        List.iter
          (fun (job, m, cases, algorithms) ->
            let mname = Machine.name m and saved_before = !frame_saved in
            let shrunk = Hashtbl.create 8 in
            Sweep.run tally cases algorithms
              (fun { Sweep.name; program; input } algo ->
                match
                  Diffexec.check_pipeline ~fuel ~input ~passes m algo program
                with
                | Ok stats ->
                  frame_saved := !frame_saved + stats.Lsra.Stats.frame_saved;
                  Sweep.Pass
                | Error d ->
                  let aname = Lsra.Allocator.short_name algo in
                  Printf.eprintf "DIVERGENCE %s on %s under %s: %s\n%!" name
                    mname aname
                    (Diffexec.divergence_to_string d);
                  (* Minimise the allocator's first divergence in this job
                     with the same full-pipeline oracle and dump the
                     reproducer; keep later ones whole. *)
                  let text =
                    match Hashtbl.find_opt shrunk aname with
                    | Some first ->
                      Printf.eprintf
                        "  not shrunk: %s's first divergence on %s %s was \
                         %s\n%!"
                        aname mname job first;
                      Lsra_text.Ir_text.to_string program
                    | None ->
                      Hashtbl.replace shrunk aname name;
                      let text =
                        Lsra_text.Ir_text.to_string
                          (Diffexec.shrink_pipeline ~input ~passes m algo
                             program)
                      in
                      Printf.eprintf "minimal reproducer:\n%s%!" text;
                      text
                  in
                  Option.iter
                    (fun dir ->
                      Printf.eprintf "  reproducer written to %s\n%!"
                        (Sweep.write_artifact ~dir ~name:[ name; mname; aname ]
                           m algo text))
                    artifact_dir;
                  Sweep.of_divergence d);
            if !frame_saved > saved_before then
              Printf.printf "diffcheck: %s %s: %d frame words saved by slots\n"
                mname job (!frame_saved - saved_before))
          jobs;
        Printf.printf
          "diffcheck: %d checks (passes: %s), %d divergences (%d verifier \
           rejects), %d frame words saved\n"
          (Sweep.checks tally)
          (Lsra.Passes.to_spec passes)
          (tally.Sweep.diverged + tally.Sweep.rejected)
          tally.Sweep.rejected !frame_saved;
        (* Behavioral divergences (wrong output, traps, allocator
           exceptions, trace mismatches — from allocation or any cleanup
           pass) exit 4; a run whose only failures are verifier
           rejections exits 3, like [handle_errors] on Verify.Mismatch. *)
        Sweep.exit_on [ tally ])
  in
  Cmd.v
    (Cmd.info "diffcheck"
       ~doc:
         "Differential-execution oracle over the full pipeline: run \
          programs through the managed passes and every allocator, \
          re-interpreting and re-verifying after every pass (the \
          allocation also runs under a decision trace whose replay must \
          agree with the reported statistics), then, on x86-64, emitting \
          and executing the result natively. The first divergence of \
          each allocator on each machine and program set is shrunk to a \
          minimal reproducer, later ones are reported as they are (all \
          written to $(b,LSRA_DIFF_ARTIFACT_DIR) when set). Exits 4 on \
          any behavioral divergence, 3 when only the abstract verifier \
          rejected.")
    Term.(
      const run $ file_arg $ machine_arg $ input_arg $ fuel_arg
      $ scale_arg ~doc:"Corpus workload scale factor."
      $ passes_arg ~default:Lsra.Passes.all)

let jit_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Program to compile and execute natively ('-' for stdin).")
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
  let run file fn machine algo input fuel passes dump_asm =
    handle_errors (fun () ->
        let prog = load file in
        ignore
          (Lsra.Allocator.pipeline ~precheck:true ~verify:false ~passes algo
             machine prog);
        match Lsra_native.Lower.compile machine prog with
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
  in
  Cmd.v
    (Cmd.info "jit"
       ~doc:
         "Emit x86-64 machine code for an allocated program and execute \
          it in process: allocate, emit (optionally $(b,--dump-asm)) and \
          run, printing the program's output and return value. On \
          non-x86-64 hosts $(b,--dump-asm) still works. The oracle's \
          native check is $(b,diffcheck)'s last stage.")
    Term.(
      const run $ file_arg $ fn_arg $ machine_arg $ algo_term $ input_arg
      $ fuel_arg
      $ passes_arg ~default:Lsra.Passes.all
      $ dump_asm_arg)

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
        let prog = load_checked machine file in
        (match fn with
        | Some n when not (List.mem_assoc n (Program.funcs prog)) ->
          Printf.eprintf "no function named '%s' in %s\n" n file;
          exit 1
        | Some _ | None -> ());
        (* No DCE: the trace describes the program exactly as written. *)
        let t = Lsra.Trace.create () in
        (* A traced allocation checks itself; a mismatching stream is
           still printed, up to the section that failed. *)
        let mismatch =
          match Lsra.Allocator.run_program ~trace:t algo machine prog with
          | _ -> None
          | exception Lsra.Allocator.Trace_mismatch e -> Some e
        in
        let evs = Lsra.Trace.events t in
        let shown =
          match fn with None -> evs | Some n -> Lsra.Trace.filter_fn n evs
        in
        print_string
          (match format with
          | `Text -> Lsra.Trace.to_text shown
          | `Jsonl -> Lsra.Trace.to_jsonl shown);
        Option.iter
          (fun e ->
            Printf.eprintf "trace replay mismatch: %s\n" e;
            exit 1)
          mismatch)
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
        let fd_setsize = Lsra_service.Mux.fd_setsize in
        if max_clients >= fd_setsize then begin
          Printf.eprintf
            "serve: --max-clients %d exceeds what select(2) can watch \
             (FD_SETSIZE = %d); use %d or fewer\n"
            max_clients fd_setsize (fd_setsize - 1);
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
        let severity =
          match socket with
          | None ->
            Lsra_service.Mux.serve_fds ~capacity:queue ~jobs svc
              ~input:Unix.stdin ~output:Unix.stdout
          | Some path ->
            Lsra_service.Mux.serve_socket ~max_clients ~capacity:queue ~jobs
              svc path
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
