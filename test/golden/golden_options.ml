(* Golden binpack options: the allocated IR text and the resolution
   load/store/move counts of every Minilang corpus program, every
   Specbench program at scale 1 and twenty generated programs, under all
   eight combinations of early second chance × move optimisation ×
   iterative/conservative consistency, on the two spill-heavy sweep
   machines (small-8 and small:7:7), where resolution does real work.
   The pipeline is the paper's (DCE, second-chance binpacking,
   peephole).

   Per program and machine the combinations are printed in a fixed
   order; a combination whose allocated text equals an earlier one's
   prints "text as <earlier>" instead of repeating it, so the file stays
   reviewable while still pinning every byte. After reviewing a diff,
   refresh with

     dune promote test/golden/options.expected
*)

let machines =
  [ ("small-8", Lsra_sim.Sweep.small_8); ("small:7:7", Lsra_sim.Sweep.small_7_7) ]

let combos =
  List.concat_map
    (fun early_second_chance ->
      List.concat_map
        (fun move_opt ->
          List.map
            (fun consistency ->
              { Lsra.Binpack.early_second_chance; move_opt; consistency })
            [ Lsra.Binpack.Iterative; Lsra.Binpack.Conservative ])
        [ true; false ])
    [ true; false ]

let combo_name (o : Lsra.Binpack.options) =
  Printf.sprintf "esc=%b move=%b %s" o.early_second_chance o.move_opt
    (match o.consistency with
    | Lsra.Binpack.Iterative -> "iterative"
    | Lsra.Binpack.Conservative -> "conservative")

let print_program header machine prog =
  Printf.printf "==== %s ====\n" header;
  let seen = ref [] in
  List.iter
    (fun opts ->
      let p = Lsra_ir.Program.copy prog in
      let s =
        Lsra.Allocator.pipeline ~precheck:true ~passes:Lsra.Passes.default
          (Lsra.Allocator.Second_chance opts) machine p
      in
      let name = combo_name opts in
      Printf.printf "-- %s: resolve %d loads, %d stores, %d moves\n" name
        s.Lsra.Stats.resolve_loads s.Lsra.Stats.resolve_stores
        s.Lsra.Stats.resolve_moves;
      let text = Lsra_text.Ir_text.to_string p in
      match List.assoc_opt text !seen with
      | Some earlier -> Printf.printf "text as %s\n" earlier
      | None ->
        seen := (text, name) :: !seen;
        print_string text)
    combos

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
        (* The shapes of golden_irtext.ml: half default, half call-dense. *)
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
