open Lsra_ir
open Lsra_target

type case = { name : string; program : Program.t; input : string }

(* A small machine may not support a program's calling convention (too
   few argument registers); both sources skip those programs there. *)
let corpus ?(pressure = true) ~scale machine =
  List.filter_map
    (fun name ->
      match Lsra_workloads.Specbench.find machine ~scale name with
      | Some c ->
        Some { name = "spec:" ^ name; program = c.program; input = c.input }
      | None -> None
      | exception Lsra_workloads.Specbench.Unfit _ -> None)
    Lsra_workloads.Specbench.names
  @ List.filter_map
      (fun { Lsra_workloads.Mini_corpus.mname; source; minput } ->
        match Lsra_frontend.Minilang.compile machine source with
        | program -> Some { name = "mini:" ^ mname; program; input = minput }
        | exception Lsra_frontend.Lower.Error _ -> None)
      Lsra_workloads.Mini_corpus.all
  @ List.map
      (fun (shape : Lsra_workloads.Pressure.shape) ->
        let program = Lsra_workloads.Pressure.build machine shape in
        { name = "pressure:" ^ shape.sname; program; input = "" })
      (if pressure then Lsra_workloads.Pressure.[ cvrin; twldrv; fpppp ]
       else [])

let hostile machine =
  List.map
    (fun seed ->
      let params = Lsra_workloads.Gen.hostile_params ~seed in
      let program = Lsra_workloads.Gen.program ~params machine in
      { name = Printf.sprintf "hostile:%d" seed; program; input = "" })
    [ 1000; 1001 ]

(* Parameters are derived from the seed so the fixed seed set covers a
   spread of sizes, call densities and loop-carried pressure. *)
let generated_params seed =
  {
    Lsra_workloads.Gen.default_params with
    Lsra_workloads.Gen.seed;
    n_funcs = 1 + (seed mod 3);
    n_temps = 6 + (seed mod 13);
    n_stmts = 6 + (seed mod 15);
    max_depth = 2 + (seed mod 2);
    carried = 1 + (seed mod 4);
    ext_call_prob = 0.05 +. (0.02 *. float_of_int (seed mod 5));
  }

let generated machine =
  List.init 100 (fun seed ->
      let params = generated_params seed in
      let program = Lsra_workloads.Gen.program ~params machine in
      let input =
        String.init 8 (fun i -> Char.chr (65 + ((seed + i) mod 26)))
      in
      { name = Printf.sprintf "gen:%d" seed; program; input })

let small_7_7 =
  Machine.small ~int_regs:7 ~float_regs:7 ~int_caller_saved:4
    ~float_caller_saved:4 ()

let small_8 =
  Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
    ~float_caller_saved:4 ()

let bench_machines = [ ("alpha", Machine.alpha_like); ("small-8", small_8) ]

let fuzz_machines =
  bench_machines @ [ ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ()) ]

let oracle_algorithms =
  List.map
    (function
      | Lsra.Allocator.Optimal o ->
        Lsra.Allocator.Optimal { o with Lsra.Optimal.node_budget = 2_000 }
      | a -> a)
    Lsra.Allocator.all

type verdict =
  | Pass
  | Skip
  | Reject of string
  | Diverge of string

let of_divergence d =
  let why = Diffexec.divergence_to_string d in
  if Diffexec.is_verifier_reject d then Reject why else Diverge why

type tally = {
  mutable passed : int;
  mutable skipped : int;
  mutable rejected : int;
  mutable diverged : int;
}

let tally () =
  { passed = 0; skipped = 0; rejected = 0; diverged = 0 }

let record t = function
  | Pass -> t.passed <- t.passed + 1
  | Skip -> t.skipped <- t.skipped + 1
  | Reject _ -> t.rejected <- t.rejected + 1
  | Diverge _ -> t.diverged <- t.diverged + 1

let checks t = t.passed + t.skipped + t.rejected + t.diverged

let exit_code t =
  if t.diverged > 0 then 4 else if t.rejected > 0 then 3 else 0

let run t cases algorithms check =
  List.iter
    (fun case -> List.iter (fun a -> record t (check case a)) algorithms)
    cases

let exit_on ts =
  match List.fold_left (fun c t -> max c (exit_code t)) 0 ts with
  | 0 -> ()
  | c -> exit c

let write_artifact ~dir ~name machine algo reproducer =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sanitize =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c
      | _ -> '-')
  in
  let stem =
    Filename.concat dir (String.concat "_" (List.map sanitize name))
  in
  let write suffix text =
    Out_channel.with_open_text (stem ^ suffix) (fun oc ->
        Out_channel.output_string oc text)
  in
  write ".lsra" reproducer;
  let trace = Lsra.Trace.create () in
  (match
     Lsra.Allocator.run_program ~trace algo machine
       (Lsra_text.Ir_text.of_string reproducer)
   with
  | _ | (exception Lsra.Allocator.Trace_mismatch _) ->
    (* a mismatching stream is the finding: write it *)
    let events = Lsra.Trace.events trace in
    write ".trace.txt" (Lsra.Trace.to_text events);
    write ".trace.jsonl" (Lsra.Trace.to_jsonl events)
  | exception e ->
    (* e.g. the divergence is the allocator crashing: record that
       instead of a trace *)
    write ".trace.txt"
      ("no trace: allocation failed with " ^ Printexc.to_string e ^ "\n"));
  stem ^ ".lsra"
