(* Golden IR text: the canonical rendering ({!Lsra_text.Ir_text.to_string})
   of every Minilang corpus program, every Specbench program at scale 1
   and twenty generated programs, each before allocation and after the
   paper's pipeline (DCE, second-chance binpacking, peephole) on the
   alpha-like machine and on the register-starved small-8 machine,
   diffed against the committed expectation by the runtest rule in this
   directory. Together the inputs cover hexadecimal float literals,
   anonymous and named temps, evict and resolve spill tags and calls
   with clobber lists.

   Each pre-allocation program is preceded by its service cache key
   ({!Lsra_service.Cachekey.digest} under binpack and the default
   passes): journals store entries under these keys, so a change to
   either the key derivation or the canonical text would orphan every
   journal written before it. After reviewing a diff, refresh with

     dune promote test/golden/irtext.expected
*)

open Lsra_target

let small8 =
  Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
    ~float_caller_saved:4 ()

let machines = [ ("alpha", Machine.alpha_like); ("small-8", small8) ]
let algo = Lsra.Allocator.default_second_chance
let passes = Lsra.Passes.default

let print_program header machine prog =
  Printf.printf "==== %s ====\n" header;
  Printf.printf "key %s\n"
    (Lsra_service.Cachekey.digest ~machine ~algo ~passes prog);
  print_string (Lsra_text.Ir_text.to_string prog);
  ignore (Lsra.Allocator.pipeline ~precheck:true ~passes algo machine prog);
  Printf.printf "==== %s, after binpack ====\n" header;
  print_string (Lsra_text.Ir_text.to_string prog)

let () =
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (e : Lsra_workloads.Mini_corpus.entry) ->
          let header = Printf.sprintf "minilang %s, %s" e.mname mname in
          match Lsra_frontend.Minilang.compile machine e.source with
          | prog -> print_program header machine prog
          | exception Lsra_frontend.Lower.Error msg ->
            Printf.printf "==== %s ====\nfrontend rejected: %s\n" header msg)
        Lsra_workloads.Mini_corpus.all;
      List.iter
        (fun (c : Lsra_workloads.Specbench.case) ->
          print_program
            (Printf.sprintf "specbench %s, %s" c.name mname)
            machine c.program)
        (Lsra_workloads.Specbench.all machine ~scale:1);
      for seed = 1 to 20 do
        (* Small shapes keep the fixture small; half the seeds use the
           call-dense profile for clobber lists and call-boundary
           spills. *)
        let base =
          if seed <= 10 then
            { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
          else Lsra_workloads.Gen.hostile_params ~seed
        in
        let params =
          {
            base with
            Lsra_workloads.Gen.n_funcs = 2;
            n_stmts = 4;
            max_depth = 1;
            n_temps = 8;
          }
        in
        print_program
          (Printf.sprintf "gen seed %d, %s" seed mname)
          machine
          (Lsra_workloads.Gen.program ~params machine)
      done)
    machines
