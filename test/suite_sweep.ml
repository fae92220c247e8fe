open Lsra_target
module S = Lsra_sim.Sweep

let tally_of verdicts =
  let t = S.tally () in
  List.iter (S.record t) verdicts;
  t

(* The one exit-code rule every sweep shares. *)
let test_exit_code () =
  List.iter
    (fun (what, verdicts, expected) ->
      Alcotest.(check int) what expected (S.exit_code (tally_of verdicts)))
    [
      ("empty tally", [], 0);
      ("skip only", [ S.Pass; S.Skip ], 0);
      ("reject only", [ S.Pass; S.Reject "r" ], 3);
      ("reject plus diverge", [ S.Reject "r"; S.Diverge "d"; S.Pass ], 4);
    ]

let test_tally_counts () =
  let t = tally_of [ S.Pass; S.Skip; S.Skip; S.Skip; S.Reject "r" ] in
  Alcotest.(check int) "checks" 5 (S.checks t);
  Alcotest.(check int) "skipped" 3 t.S.skipped

(* small:7:7 has too few argument registers for quicksort's calling
   convention: that entry is dropped there, not raised. *)
let test_corpus_order () =
  let spec =
    List.map (( ^ ) "spec:")
      [ "alvinn"; "doduc"; "eqntott"; "espresso"; "fpppp"; "li"; "tomcatv";
        "compress"; "m88ksim"; "sort"; "wc" ]
  and minis names = List.map (( ^ ) "mini:") names
  and pressure = [ "pressure:cvrin"; "pressure:twldrv"; "pressure:fpppp" ] in
  let names ?pressure m =
    List.map (fun c -> c.S.name) (S.corpus ?pressure ~scale:1 m)
  in
  let small_minis = minis [ "matmul"; "collatz"; "newton"; "wordcount" ] in
  Alcotest.(check (list string))
    "alpha"
    (spec
    @ minis [ "matmul"; "quicksort"; "collatz"; "newton"; "wordcount" ]
    @ pressure)
    (names Machine.alpha_like);
  Alcotest.(check (list string))
    "small:7:7" (spec @ small_minis @ pressure) (names S.small_7_7);
  Alcotest.(check (list string))
    "no pressure" (spec @ small_minis) (names ~pressure:false S.small_7_7)

(* A machine with too few argument registers for some Specbench
   programs still gets the ones that fit: [find] builds only the program
   it is asked for, an unfit one raises the typed [Unfit], and the corpus
   leaves it out. *)
let test_corpus_unfit () =
  let module Sb = Lsra_workloads.Specbench in
  let tiny_4 = List.assoc "tiny-4" S.fuzz_machines in
  (match Sb.find tiny_4 ~scale:1 "wc" with
  | Some c -> Alcotest.(check string) "find wc on tiny-4" "wc" c.Sb.name
  | None -> Alcotest.fail "wc missing");
  List.iter
    (fun name ->
      match Sb.find tiny_4 ~scale:1 name with
      | _ -> Alcotest.failf "%s built on tiny-4" name
      | exception Sb.Unfit _ -> ())
    [ "eqntott"; "li"; "sort" ];
  let spec m =
    List.filter_map
      (fun c ->
        if String.starts_with ~prefix:"spec:" c.S.name then Some c.S.name
        else None)
      (S.corpus ~scale:1 m)
  in
  Alcotest.(check (list string))
    "tiny-4 corpus"
    [ "spec:alvinn"; "spec:doduc"; "spec:espresso"; "spec:fpppp";
      "spec:tomcatv"; "spec:compress"; "spec:m88ksim"; "spec:wc" ]
    (spec tiny_4);
  Alcotest.(check (list string))
    "small:3:3 corpus" []
    (spec (Machine.small ~int_regs:3 ~float_regs:3 ()));
  List.iter
    (fun (what, m) ->
      Alcotest.(check (list string))
        (what ^ " corpus")
        (List.map (( ^ ) "spec:") Sb.names)
        (spec m))
    [ ("alpha", Machine.alpha_like); ("small:7:7", S.small_7_7);
      ("small-8", S.small_8) ]

let test_oracle_budget () =
  Alcotest.(check (list string))
    "Allocator.all's order"
    (List.map Lsra.Allocator.short_name Lsra.Allocator.all)
    (List.map Lsra.Allocator.short_name S.oracle_algorithms);
  Alcotest.(check (list int))
    "node budget" [ 2000 ]
    (List.filter_map
       (function
         | Lsra.Allocator.Optimal o -> Some o.Lsra.Optimal.node_budget
         | _ -> None)
       S.oracle_algorithms)

let test_artifact_writer () =
  let dir = Filename.temp_dir "lsra_sweep" "" in
  let read suffix =
    In_channel.with_open_text (Filename.concat dir suffix) In_channel.input_all
  in
  let write name m text =
    S.write_artifact ~dir ~name m Lsra.Allocator.default_second_chance text
  in
  let case = List.hd (S.corpus ~scale:1 S.small_8) in
  let text = Lsra_text.Ir_text.to_string case.S.program in
  Alcotest.(check string)
    "path"
    (Filename.concat dir "spec-alvinn_small-8_binpack.lsra")
    (write [ case.S.name; "small-8"; "binpack" ] S.small_8 text);
  Alcotest.(check string) "reproducer" text
    (read "spec-alvinn_small-8_binpack.lsra");
  List.iter
    (fun suffix ->
      let trace = read ("spec-alvinn_small-8_binpack" ^ suffix) in
      if trace = "" || String.starts_with ~prefix:"no trace" trace then
        Alcotest.failf "%s: no trace" suffix)
    [ ".trace.txt"; ".trace.jsonl" ];
  (* The four-register machine has no $r30, so allocation raises. *)
  let bad =
    "program main=main heap=65536\n\nfunc main {\n  temp x.0 int\n\
    \  block entry:\n    $r30 := 1\n    x.0 := $r30\n    $r0 := x.0\n\
    \    ret\n}\n"
  in
  ignore (write [ "bad" ] (Machine.small ()) bad);
  Alcotest.(check string) "bad reproducer" bad (read "bad.lsra");
  let note = read "bad.trace.txt" in
  if not (String.starts_with ~prefix:"no trace: allocation failed" note) then
    Alcotest.failf "expected a no-trace note, got %S" note;
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
  Sys.rmdir dir

(* Spill instructions left in [f]: evict then resolve, each as loads,
   stores, moves. *)
let spill_counts f =
  let n = Array.make 6 0 in
  Lsra_ir.Cfg.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          match Lsra_ir.Instr.tag i with
          | Lsra_ir.Instr.Original -> ()
          | Lsra_ir.Instr.Spill { phase; kind } ->
            let k =
              (match phase with Evict -> 0 | Resolve -> 3)
              + match kind with Spill_ld -> 0 | Spill_st -> 1 | Spill_mv -> 2
            in
            n.(k) <- n.(k) + 1)
        (Lsra_ir.Block.body b))
    (Lsra_ir.Func.cfg f);
  Array.to_list n

(* The static counters every allocator reports must count exactly the
   spill instructions it left in the function, and [slots] the frame it
   used. *)
let test_counters_match_code () =
  let machines =
    [
      ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
      ("small-8", S.small_8);
      ( "min-3",
        Machine.small ~int_regs:3 ~float_regs:3 ~int_caller_saved:1
          ~float_caller_saved:1 () );
    ]
  and programs =
    List.concat_map
      (fun seed ->
        [
          ("default", { Lsra_workloads.Gen.default_params with seed });
          ("hostile", Lsra_workloads.Gen.hostile_params ~seed);
        ])
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (mname, m) ->
      List.iter
        (fun (pname, params) ->
          let prog = Lsra_workloads.Gen.program ~params m in
          List.iter
            (fun algo ->
              List.iter
                (fun (fname, f) ->
                  let f = Lsra_ir.Func.copy f in
                  let s = Lsra.Allocator.run algo m f in
                  let what =
                    Printf.sprintf "%s seed %d on %s, %s, %s" pname
                      params.Lsra_workloads.Gen.seed mname
                      (Lsra.Allocator.short_name algo)
                      fname
                  in
                  Alcotest.(check (list int))
                    (what ^ ": evict/resolve loads, stores, moves")
                    [
                      s.evict_loads; s.evict_stores; s.evict_moves;
                      s.resolve_loads; s.resolve_stores; s.resolve_moves;
                    ]
                    (spill_counts f);
                  Alcotest.(check int)
                    (what ^ ": slots") (Lsra_ir.Func.n_slots f) s.slots)
                (Lsra_ir.Program.funcs prog))
            S.oracle_algorithms)
        programs)
    machines

let suite =
  [
    Alcotest.test_case "exit code rule" `Quick test_exit_code;
    Alcotest.test_case "tally counts" `Quick test_tally_counts;
    Alcotest.test_case "corpus names and order" `Quick test_corpus_order;
    Alcotest.test_case "corpus skips programs that do not fit" `Quick
      test_corpus_unfit;
    Alcotest.test_case "oracle budget 2000" `Quick test_oracle_budget;
    Alcotest.test_case "artifact writer" `Quick test_artifact_writer;
    Alcotest.test_case "static counters match the spill code" `Quick
      test_counters_match_code;
  ]
