open Lsra_ir
open Lsra_target
module B = Builder
module Trace = Lsra.Trace

let o_int = Operand.int
let o_temp = Operand.temp

(* ------------------------------------------------------------------ *)
(* Trace invariants as properties: for any generated program and any
   allocator, replaying the decision trace must reproduce the
   allocator's own spill accounting, and the event stream must be
   structurally well-formed (strictly so for the second-chance scan:
   no decision about a temporary after its expiry, and every spill
   split is followed by a second chance or end of lifetime). *)

let machines =
  [
    ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
    ("min-3", Machine.small ~int_regs:3 ~float_regs:3 ~int_caller_saved:1 ~float_caller_saved:1 ());
  ]

let run_traced ~mname ~algo seed =
  let machine = List.assoc mname machines in
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 6 + (seed mod 13);
      n_stmts = 8 + (seed mod 17);
      n_funcs = 1 + (seed mod 3);
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  let trace = Trace.create () in
  let stats = Lsra.Allocator.run_program ~trace algo machine prog in
  let events = Trace.events trace in
  let aname = Lsra.Allocator.short_name algo in
  (match Trace.replay_check events stats with
  | Ok () -> ()
  | Error e ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] replay disagrees with stats: %s"
      mname aname seed e);
  let strict =
    match algo with Lsra.Allocator.Second_chance _ -> true | _ -> false
  in
  (match Trace.well_formed ~strict events with
  | Ok () -> ()
  | Error e ->
    QCheck.Test.fail_reportf "[%s/%s seed %d] malformed event stream: %s"
      mname aname seed e);
  true

let property_tests =
  List.concat_map
    (fun (mname, _) ->
      List.map
        (fun algo ->
          QCheck.Test.make
            ~name:
              (Printf.sprintf "trace replay+shape: %s on %s"
                 (Lsra.Allocator.short_name algo) mname)
            ~count:15
            QCheck.(int_range 0 100_000)
            (run_traced ~mname ~algo))
        Lsra.Allocator.all)
    machines

(* ------------------------------------------------------------------ *)
(* Ablation fixtures for the paper's §2.5 options: tiny programs where
   flipping one option provably changes both the decision trace and
   the spill counts. *)

let has f events = List.exists f events

let alloc_with_trace ~opts machine func =
  let trace = Trace.create () in
  let original = Func.copy func in
  let stats =
    Lsra.Allocator.run ~trace (Lsra.Allocator.Second_chance opts) machine func
  in
  (match Lsra.Verify.check machine ~original ~allocated:func with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "verifier rejects fixture at '%s': %s" e.Lsra.Verify.where
      e.Lsra.Verify.what);
  (stats, Trace.events trace)

(* Early second chance (§2.5): [t] is live across the trailing call
   but can only be granted a caller-saved register — the callee-saved
   registers host [u] and [v], whose next references sit in the loop
   (10× keep-benefit, §2.3), so displacing them loses to taking the
   largest insufficient hole.  [v] dies before the call, freeing a
   callee-saved register: with the option on, the convention eviction
   of [t] becomes a register-to-register move into it; off, it is a
   store plus a later reload.  Returns the function and [t]'s id. *)
let esc_fixture () =
  let m = Machine.small () in
  let b = B.create ~name:"esc" in
  let u = B.temp b Rclass.Int ~name:"u" in
  let v = B.temp b Rclass.Int ~name:"v" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let t = B.temp b Rclass.Int ~name:"t" in
  B.start_block b "entry";
  B.li b u 1;
  B.li b v 2;
  B.call b ~func:"leaf" ~args:[] ~rets:[]
    ~clobbers:(Machine.all_caller_saved m);
  B.li b i 0;
  B.li b t 7;
  B.start_block b "loop";
  B.bin b Instr.Add u (o_temp u) (o_temp v);
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.branch b Instr.Lt (o_temp i) (o_int 4) ~ifso:"loop" ~ifnot:"exit";
  B.start_block b "exit";
  B.bin b Instr.Add u (o_temp u) (o_temp v);
  B.call b ~func:"leaf" ~args:[] ~rets:[]
    ~clobbers:(Machine.all_caller_saved m);
  B.bin b Instr.Add u (o_temp u) (o_temp t);
  B.move b (Loc.Reg (Machine.int_ret m)) (o_temp u);
  B.ret b;
  (B.finish b, Temp.id t)

let test_esc_on () =
  let opts =
    { Lsra.Binpack.default_options with Lsra.Binpack.early_second_chance = true }
  in
  let func, t_id = esc_fixture () in
  let stats, events = alloc_with_trace ~opts (Machine.small ()) func in
  Alcotest.(check int) "evict moves" 1 stats.Lsra.Stats.evict_moves;
  Alcotest.(check int) "evict stores" 0 stats.Lsra.Stats.evict_stores;
  Alcotest.(check int) "evict loads" 0 stats.Lsra.Stats.evict_loads;
  Alcotest.(check int) "total spill" 1 (Lsra.Stats.total_spill stats);
  Alcotest.(check bool) "Early_second_chance event for t" true
    (has
       (function
         | Trace.Early_second_chance { id; _ } -> id = t_id | _ -> false)
       events)

let test_esc_off () =
  let opts =
    {
      Lsra.Binpack.default_options with
      Lsra.Binpack.early_second_chance = false;
    }
  in
  let func, t_id = esc_fixture () in
  let stats, events = alloc_with_trace ~opts (Machine.small ()) func in
  Alcotest.(check int) "evict moves" 0 stats.Lsra.Stats.evict_moves;
  Alcotest.(check int) "evict stores" 1 stats.Lsra.Stats.evict_stores;
  Alcotest.(check int) "evict loads" 1 stats.Lsra.Stats.evict_loads;
  Alcotest.(check int) "total spill" 2 (Lsra.Stats.total_spill stats);
  Alcotest.(check bool) "Spill_split then Second_chance for t" true
    (has
       (function Trace.Spill_split { id; _ } -> id = t_id | _ -> false)
       events
    && has
         (function
           | Trace.Second_chance { id; _ } -> id = t_id | _ -> false)
         events);
  Alcotest.(check bool) "no Early_second_chance" false
    (has
       (function Trace.Early_second_chance _ -> true | _ -> false)
       events)

(* Move preferencing (§2.5): [bb := move a] with [a] dying at the
   move.  With the option on, [bb] inherits [a]'s register — the one
   free register with an unbounded availability hole — so when the
   long-lived [d] arrives it finds only insufficient holes (the pinned
   $r2 write and the call bound the free ones) and displaces [bb],
   which costs a store and a reload.  Off, the def picks the smallest
   sufficient hole instead, leaving the unbounded register for [d],
   and nothing spills.  The fixture thus pins down both the event
   delta (Assign/Move_pref vs Pref_miss) and the spill delta the
   preference causes.  Returns the function and [bb]'s id. *)
let move_opt_fixture m =
  let r2 = Mreg.make ~cls:Rclass.Int 2 in
  let b = B.create ~name:"moveopt" in
  let u0 = B.temp b Rclass.Int ~name:"u0" in
  let u1 = B.temp b Rclass.Int ~name:"u1" in
  let a = B.temp b Rclass.Int ~name:"a" in
  let bb = B.temp b Rclass.Int ~name:"bb" in
  let d = B.temp b Rclass.Int ~name:"d" in
  let s = B.temp b Rclass.Int ~name:"s" in
  B.start_block b "entry";
  B.li b u0 1;
  B.li b u1 2;
  B.li b a 3;
  B.bin b Instr.Add u0 (o_temp u0) (o_temp u1);
  B.movet b bb (o_temp a);
  B.li b d 7;
  B.call b ~func:"leaf" ~args:[] ~rets:[]
    ~clobbers:(Machine.all_caller_saved m);
  B.bin b Instr.Add s (o_temp bb) (o_temp bb);
  B.move b (Loc.Reg r2) (o_int 0);
  B.bin b Instr.Add s (o_temp s) (o_temp d);
  B.move b (Loc.Reg (Machine.int_ret m)) (o_temp s);
  B.ret b;
  (B.finish b, Temp.id bb)

let moveopt_machine () =
  Machine.small ~int_regs:3 ~float_regs:3 ~int_caller_saved:1
    ~float_caller_saved:1 ()

let test_move_opt_on () =
  let m = moveopt_machine () in
  let opts =
    {
      Lsra.Binpack.default_options with
      Lsra.Binpack.move_opt = true;
      early_second_chance = false;
    }
  in
  let func, bb_id = move_opt_fixture m in
  let stats, events = alloc_with_trace ~opts m func in
  Alcotest.(check bool) "Assign with Move_pref for bb" true
    (has
       (function
         | Trace.Assign { id; reason = Trace.Move_pref; _ } -> id = bb_id
         | _ -> false)
       events);
  Alcotest.(check int) "evict stores" 1 stats.Lsra.Stats.evict_stores;
  Alcotest.(check int) "evict loads" 1 stats.Lsra.Stats.evict_loads;
  Alcotest.(check int) "total spill" 2 (Lsra.Stats.total_spill stats)

let test_move_opt_off () =
  let m = moveopt_machine () in
  let opts =
    {
      Lsra.Binpack.default_options with
      Lsra.Binpack.move_opt = false;
      early_second_chance = false;
    }
  in
  let func, bb_id = move_opt_fixture m in
  let stats, events = alloc_with_trace ~opts m func in
  Alcotest.(check bool) "Pref_miss: move optimisation disabled" true
    (has
       (function
         | Trace.Pref_miss { id; why; _ } ->
           id = bb_id && why = "move optimisation disabled"
         | _ -> false)
       events);
  Alcotest.(check bool) "no Move_pref assignment" false
    (has
       (function
         | Trace.Assign { reason = Trace.Move_pref; _ } -> true | _ -> false)
       events);
  Alcotest.(check int) "total spill" 0 (Lsra.Stats.total_spill stats)

(* Every fixture's trace must itself replay and be strictly well-formed. *)
let test_fixture_streams () =
  List.iter
    (fun (opts, m, f) ->
      let stats, events = alloc_with_trace ~opts m f in
      (match Trace.replay_check events stats with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fixture replay: %s" e);
      match Trace.well_formed ~strict:true events with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fixture stream: %s" e)
    [
      (Lsra.Binpack.default_options, Machine.small (), fst (esc_fixture ()));
      ( { Lsra.Binpack.default_options with Lsra.Binpack.move_opt = false },
        moveopt_machine (),
        fst (move_opt_fixture (moveopt_machine ())) );
    ]

(* A traced allocation checks its own section of the sink: a section
   whose counted events disagree with the stats is rejected with the
   function named, and a stray counted event in an earlier section does
   not fail the next run. *)
let test_section_check () =
  let m = Machine.small ~int_regs:4 ~float_regs:4 () in
  let params = { Lsra_workloads.Gen.default_params with n_funcs = 2 } in
  let funcs = Program.funcs (Lsra_workloads.Gen.program ~params m) in
  let (n1, f1), (_, f2) = (List.nth funcs 0, List.nth funcs 1) in
  let algo = Lsra.Allocator.default_second_chance in
  let r0 = Mreg.make ~cls:Rclass.Int 0 in
  let stray =
    Trace.Resolve_move
      { temp = "stray"; id = 0; dst = r0; src = r0; cycle = false }
  in
  let t = Trace.create () in
  let s1 = Lsra.Allocator.run ~trace:t algo m f1 in
  (match Lsra.Allocator.check_trace algo n1 (Trace.events t @ [ stray ]) s1 with
  | () -> Alcotest.fail "a stray resolve move passed the section check"
  | exception Lsra.Allocator.Trace_mismatch e ->
    Alcotest.(check string) "rejection"
      (Printf.sprintf
         "replay under binpack in '%s': resolve_moves: trace replays %d, \
          Stats reports %d"
         n1 (s1.resolve_moves + 1) s1.resolve_moves)
      e);
  Trace.emit t stray;
  let s2 = Lsra.Allocator.run ~trace:t algo m f2 in
  Alcotest.(check int) "the stray still counts in the whole stream"
    (s1.resolve_moves + s2.resolve_moves + 1)
    (Trace.replay (Trace.events t)).r_resolve_moves

(* What no trace exercises: every escape in strings and keys, NaN,
   and lists nested in objects. *)
let test_json_writer () =
  let v =
    `Assoc
      [
        ("q\"b\\n\nt\tc\001", `String "q\"b\\n\nt\tc\001");
        ("nan", `Float Float.nan);
        ("l", `List [ `List [ `Int 1; `Null ]; `Assoc [ ("x", `Bool false) ] ]);
        ("e", `Assoc []);
      ]
  in
  Alcotest.(check string)
    "rendering"
    {|{"q\"b\\n\nt\tc\u0001":"q\"b\\n\nt\tc\u0001","nan":null,"l":[[1,null],{"x":false}],"e":{}}|}
    (Lsra.Json.to_string v)

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false) property_tests
  @ [
      Alcotest.test_case "esc on: convention eviction becomes a move" `Quick
        test_esc_on;
      Alcotest.test_case "esc off: same eviction is store+reload" `Quick
        test_esc_off;
      Alcotest.test_case "move_opt on: Move_pref assignment, spill cascade"
        `Quick test_move_opt_on;
      Alcotest.test_case "move_opt off: Pref_miss, no spills" `Quick
        test_move_opt_off;
      Alcotest.test_case "fixture traces replay and are well-formed" `Quick
        test_fixture_streams;
      Alcotest.test_case "json: escapes, NaN, nesting" `Quick test_json_writer;
      Alcotest.test_case "a traced run checks its own section" `Quick
        test_section_check;
    ]
