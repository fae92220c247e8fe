open Lsra_ir
open Lsra_target
module B = Builder
open Helpers

let test_straightline_no_spill () =
  let b = B.create ~name:"main" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  let z = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 7;
  B.li b y 5;
  B.bin b Instr.Add z (o_temp x) (o_temp y);
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (o_temp z);
  B.ret b;
  let f = B.finish b in
  let machine = Machine.small () in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"straightline" machine prog
      (second_chance machine)
  in
  Alcotest.(check int)
    "no spill code executed" 0
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts);
  Alcotest.(check string)
    "result" "12"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_pressure_spills () =
  let machine = Machine.small ~int_regs:4 ~float_regs:2 () in
  let f = pressure_func ~width:8 ~iters:10 in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"pressure" machine prog (second_chance machine)
  in
  Alcotest.(check bool)
    "spill code executed" true
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts > 0)

let test_pressure_wide_machine () =
  let machine = Machine.alpha_like in
  let f = pressure_func ~width:8 ~iters:10 in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"pressure-wide" machine prog
      (second_chance machine)
  in
  Alcotest.(check int)
    "no spill code on a wide machine" 0
    (Lsra_sim.Interp.spill_total outcome.Lsra_sim.Interp.counts)

let test_branch_diamond () =
  let machine = Machine.small () in
  let b = B.create ~name:"main" in
  let x = B.temp b Rclass.Int in
  let y = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 3;
  B.li b y 10;
  B.branch b Instr.Lt (o_temp x) (o_int 5) ~ifso:"then" ~ifnot:"else";
  B.start_block b "then";
  B.bin b Instr.Add y (o_temp y) (o_temp x);
  B.jump b "join";
  B.start_block b "else";
  B.bin b Instr.Sub y (o_temp y) (o_temp x);
  B.jump b "join";
  B.start_block b "join";
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp y);
  B.ret b;
  let f = B.finish b in
  let outcome =
    check_differential ~name:"diamond" machine (prog_of_func f)
      (second_chance machine)
  in
  Alcotest.(check string)
    "result" "13"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_call_preserves_values () =
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  (* callee: returns arg + 1 *)
  let cb = B.create ~name:"inc" in
  let a = B.temp cb Rclass.Int in
  B.start_block cb "entry";
  B.movet cb a (o_reg (Machine.arg_reg machine Rclass.Int 0));
  B.bin cb Instr.Add a (o_temp a) (o_int 1);
  B.move cb (Loc.Reg (Machine.int_ret machine)) (o_temp a);
  B.ret cb;
  let inc = B.finish cb in
  (* main: values live across the call must survive *)
  let mb = B.create ~name:"main" in
  let u = B.temp mb Rclass.Int in
  let v = B.temp mb Rclass.Int in
  let w = B.temp mb Rclass.Int in
  let r = B.temp mb Rclass.Int in
  B.start_block mb "entry";
  B.li mb u 100;
  B.li mb v 20;
  B.li mb w 3;
  call_int mb machine ~func:"inc" ~args:[ o_temp u ] ~ret:(Some r);
  B.bin mb Instr.Add r (o_temp r) (o_temp v);
  B.bin mb Instr.Add r (o_temp r) (o_temp w);
  B.move mb (Loc.Reg (Machine.int_ret machine)) (o_temp r);
  B.ret mb;
  let main = B.finish mb in
  let prog = Program.create ~main:"main" [ ("main", main); ("inc", inc) ] in
  let outcome =
    check_differential ~name:"call" machine prog (second_chance machine)
  in
  Alcotest.(check string)
    "result" "124"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let test_loop_with_call () =
  (* The wc-shaped scenario: temps live across a call inside a loop. *)
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:4 () in
  let b = B.create ~name:"main" in
  let sum = B.temp b Rclass.Int in
  let i = B.temp b Rclass.Int in
  let c = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b sum 0;
  B.li b i 0;
  B.start_block b "loop";
  call_int b machine ~func:"ext_getc" ~args:[] ~ret:(Some c);
  B.branch b Instr.Lt (o_temp c) (o_int 0) ~ifso:"exit" ~ifnot:"body";
  B.start_block b "body";
  B.bin b Instr.Add sum (o_temp sum) (o_temp c);
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.jump b "loop";
  B.start_block b "exit";
  B.bin b Instr.Add sum (o_temp sum) (o_temp i);
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp sum);
  B.ret b;
  let f = B.finish b in
  let prog = prog_of_func f in
  let outcome =
    check_differential ~name:"loop-call" ~input:"AB" machine prog
      (second_chance machine)
  in
  (* 65 + 66 + 2 *)
  Alcotest.(check string)
    "result" "133"
    (Lsra_sim.Value.to_string outcome.Lsra_sim.Interp.ret)

let all_option_combos () =
  List.concat_map
    (fun esc ->
      List.concat_map
        (fun mo ->
          List.map
            (fun c ->
              {
                Lsra.Binpack.early_second_chance = esc;
                move_opt = mo;
                consistency = c;
              })
            [ Lsra.Binpack.Iterative; Lsra.Binpack.Conservative ])
        [ true; false ])
    [ true; false ]

let test_option_combinations () =
  let machine = Machine.small ~int_regs:4 ~int_caller_saved:2 () in
  let f = pressure_func ~width:7 ~iters:6 in
  let prog = prog_of_func f in
  List.iter
    (fun opts ->
      ignore
        (check_differential ~name:"options" machine prog
           (second_chance ~opts machine)))
    (all_option_combos ())

(* The scan's block loop runs under [Stats.timed], so its time and minor
   words are recorded like every other pass's, by [Binpack.scan] and
   through [Allocator.pipeline]. *)
let test_scan_allocation_recorded () =
  let m = Machine.small () in
  let scan table = table.(Lsra.Stats.pass_index Lsra.Stats.Scan) in
  let scan_words s = scan s.Lsra.Stats.pass_minor_words in
  let scanned = Lsra.Binpack.scan m (pressure_func ~width:6 ~iters:3) in
  Alcotest.(check bool) "scan minor words" true
    (scan_words scanned.Lsra.Binpack.stats > 0.);
  Alcotest.(check bool) "scan time" true
    (scan scanned.Lsra.Binpack.stats.Lsra.Stats.pass_time > 0.);
  let stats =
    Lsra.Allocator.pipeline Lsra.Allocator.default_second_chance m
      (prog_of_func (pressure_func ~width:6 ~iters:3))
  in
  Alcotest.(check bool) "pipeline scan minor words" true (scan_words stats > 0.)

(* Large-function pin: the goldens cover the corpus and small generated
   programs only, so the scan's output on Table-3-sized functions is
   pinned here by digest. Each row runs [Allocator.pipeline] with the
   default passes and with none (DCE deletes the Pressure cliques, which
   are what spills on alpha-like), under one consistency mode, and pins
   the MD5 of the allocated IR text, the evict and resolve
   load/store/move counts and the dataflow rounds; cvrin also pins the
   MD5 of its JSONL decision trace. The Pressure procedures are straight
   line, so a large branchy, call-dense generated program on small-8
   covers resolution, early second chance and the two consistency
   modes. *)
let large_cases =
  let m = Machine.alpha_like in
  [
    ("cvrin", m, fun () -> Lsra_workloads.Pressure.(build m cvrin));
    ("twldrv", m, fun () -> Lsra_workloads.Pressure.(build m twldrv));
    ("fpppp", m, fun () -> Lsra_workloads.Pressure.(build m fpppp));
    ( "scaled 1000/5",
      m,
      fun () -> Lsra_workloads.Pressure.scaled ~candidates:1000 ~window:5 m );
    ( "scaled 8000/16",
      m,
      fun () -> Lsra_workloads.Pressure.scaled ~candidates:8000 ~window:16 m
    );
    ( "gen 300 on small-8",
      Lsra_sim.Sweep.small_8,
      fun () ->
        Lsra_workloads.Gen.program
          ~params:
            {
              (Lsra_workloads.Gen.hostile_params ~seed:7) with
              n_funcs = 1;
              n_stmts = 300;
              n_temps = 24;
              max_depth = 3;
            }
          Lsra_sim.Sweep.small_8 );
  ]

let large_pin (name, machine, build) ~passes consistency =
  let prog = build () in
  let trace = if name = "cvrin" then Some (Lsra.Trace.create ()) else None in
  let s =
    Lsra.Allocator.pipeline ~passes ?trace
      (Lsra.Allocator.Second_chance
         { Lsra.Binpack.default_options with Lsra.Binpack.consistency })
      machine prog
  in
  Printf.sprintf "%s evict %d/%d/%d resolve %d/%d/%d rounds %d%s"
    (Digest.to_hex (Digest.string (Lsra_text.Ir_text.to_string prog)))
    s.evict_loads s.evict_stores s.evict_moves s.resolve_loads
    s.resolve_stores s.resolve_moves s.dataflow_rounds
    (match trace with
    | None -> ""
    | Some t ->
      " trace "
      ^ Digest.to_hex
          (Digest.string (Lsra.Trace.to_jsonl (Lsra.Trace.events t))))

(* Per case, in [large_cases] order: default passes then none, each
   under [Iterative] then [Conservative]. *)
let large_pins =
  [
    [
      "a02216ed56f060ac70f48c6bf5a2a3e8 evict 0/0/0 resolve 0/0/0 rounds 0 trace 7adef06f001823dede814a295bcd2f7e";
      "a02216ed56f060ac70f48c6bf5a2a3e8 evict 0/0/0 resolve 0/0/0 rounds 0 trace 7adef06f001823dede814a295bcd2f7e";
      "a02216ed56f060ac70f48c6bf5a2a3e8 evict 0/0/0 resolve 0/0/0 rounds 0 trace e5e0bdab2b9b2edd4d23dc3d7d1c223d";
      "a02216ed56f060ac70f48c6bf5a2a3e8 evict 0/0/0 resolve 0/0/0 rounds 0 trace e5e0bdab2b9b2edd4d23dc3d7d1c223d";
    ];
    [
      "73c9fd916a60fb6332bec91e3d72b8c7 evict 0/0/0 resolve 0/0/0 rounds 0";
      "73c9fd916a60fb6332bec91e3d72b8c7 evict 0/0/0 resolve 0/0/0 rounds 0";
      "b8c231c260f47c4ce99a17890e2a8516 evict 312/312/0 resolve 0/0/0 rounds 0";
      "b8c231c260f47c4ce99a17890e2a8516 evict 312/312/0 resolve 0/0/0 rounds 0";
    ];
    [
      "b6c7a9651fafa2a45cb73086a33525ea evict 0/0/0 resolve 0/0/0 rounds 0";
      "b6c7a9651fafa2a45cb73086a33525ea evict 0/0/0 resolve 0/0/0 rounds 0";
      "1b426a3d1973d38fde31b2066eb2350c evict 546/546/0 resolve 0/0/0 rounds 0";
      "1b426a3d1973d38fde31b2066eb2350c evict 546/546/0 resolve 0/0/0 rounds 0";
    ];
    [
      "2917bc7bdc3fdc8914f8e6ee59b789ce evict 0/0/0 resolve 0/0/0 rounds 0";
      "2917bc7bdc3fdc8914f8e6ee59b789ce evict 0/0/0 resolve 0/0/0 rounds 0";
      "2917bc7bdc3fdc8914f8e6ee59b789ce evict 0/0/0 resolve 0/0/0 rounds 0";
      "2917bc7bdc3fdc8914f8e6ee59b789ce evict 0/0/0 resolve 0/0/0 rounds 0";
    ];
    [
      "2c8335e6659f8a4bde101ebaf1a1413c evict 0/0/0 resolve 0/0/0 rounds 0";
      "2c8335e6659f8a4bde101ebaf1a1413c evict 0/0/0 resolve 0/0/0 rounds 0";
      "2c8335e6659f8a4bde101ebaf1a1413c evict 0/0/0 resolve 0/0/0 rounds 0";
      "2c8335e6659f8a4bde101ebaf1a1413c evict 0/0/0 resolve 0/0/0 rounds 0";
    ];
    [
      "99c91fe730ed960643a033200abfcd3c evict 1628/841/0 resolve 2222/5500/244 rounds 4";
      "c2f6ab643a03ccb823c644b37df7f347 evict 1628/1325/0 resolve 2222/1572/244 rounds 0";
      "d841666c2bfa3ffbef348b1bb577d690 evict 1629/841/0 resolve 2222/5500/244 rounds 4";
      "9dffb5c3ca0e481410dbc961a57693a2 evict 1629/1325/0 resolve 2222/1572/244 rounds 0";
    ];
  ]

let test_large_pins () =
  List.iter2
    (fun ((name, _, _) as case) expected ->
      let rows =
        List.concat_map
          (fun (pname, passes) ->
            List.map
              (fun (mode, c) ->
                ( Printf.sprintf "%s, %s, %s" name pname mode,
                  large_pin case ~passes c ))
              [
                ("iterative", Lsra.Binpack.Iterative);
                ("conservative", Lsra.Binpack.Conservative);
              ])
          [ ("default passes", Lsra.Passes.default); ("no passes", []) ]
      in
      List.iter2
        (fun e (label, got) -> Alcotest.(check string) label e got)
        expected rows)
    large_cases large_pins

(* The busy cursor answers as the binary searches it replaced, on
   random sorted, disjoint (possibly touching, possibly no) segments and
   nondecreasing query positions, asking both questions at every
   position; a position below the last one raises. *)
let prop_busy_cursor =
  QCheck.Test.make ~count:500 ~name:"busy cursor equals the binary searches"
    QCheck.(
      pair
        (small_list (pair (int_range 1 5) (int_range 0 4)))
        (small_list (int_range 0 6)))
    (fun (shape, steps) ->
      let cur = ref (-1) in
      let segs =
        Array.of_list
          (List.map
             (fun (gap, len) ->
               let s = !cur + gap in
               cur := s + len;
               { Lsra.Interval.s; e = s + len })
             shape)
      in
      let c = Lsra.Binpack.Busy_cursor.create segs in
      let pos = ref 0 in
      List.iter
        (fun step ->
          pos := !pos + step;
          let he = Lsra.Binpack.Busy_cursor.hole_end_if_free c !pos in
          let ns = Lsra.Binpack.Busy_cursor.next_start_after c !pos in
          if
            he <> hole_end_if_free segs !pos
            || (he = min_int) <> seg_covering segs !pos
            || ns <> next_start_after segs !pos
          then QCheck.Test.fail_reportf "differs at position %d" !pos)
        steps;
      steps = []
      ||
      match Lsra.Binpack.Busy_cursor.next_start_after c (!pos - 1) with
      | _ -> QCheck.Test.fail_reportf "no raise below position %d" !pos
      | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "straight-line, no spills" `Quick
      test_straightline_no_spill;
    Alcotest.test_case "pressure forces spills" `Quick test_pressure_spills;
    Alcotest.test_case "wide machine avoids spills" `Quick
      test_pressure_wide_machine;
    Alcotest.test_case "branch diamond" `Quick test_branch_diamond;
    Alcotest.test_case "values live across calls" `Quick
      test_call_preserves_values;
    Alcotest.test_case "loop around a call (wc shape)" `Quick
      test_loop_with_call;
    Alcotest.test_case "all option combinations" `Quick
      test_option_combinations;
    Alcotest.test_case "scan allocation is recorded" `Quick
      test_scan_allocation_recorded;
    Alcotest.test_case "large functions are pinned" `Slow test_large_pins;
    QCheck_alcotest.to_alcotest ~long:false prop_busy_cursor;
  ]
