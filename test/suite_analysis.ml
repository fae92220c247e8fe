open Lsra_ir
open Lsra_analysis
open Lsra_target
module B = Builder

(* Unit and property tests for the analysis substrate. *)

(* ---------------- bitsets ---------------- *)

let test_bitset_basics () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem across word boundary" true
    (Bitset.mem s 63 && Bitset.mem s 64);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 0; 63; 64; 99 ]
    (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check bool) "out of range add" true
    (match Bitset.add s 100 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Bitset.copy s in
  Bitset.clear s;
  Alcotest.(check bool) "clear empties" true (Bitset.is_empty s);
  Alcotest.(check int) "copy unaffected" 3 (Bitset.cardinal c)

let test_bitset_setops () =
  let a = Bitset.of_list 70 [ 1; 5; 64 ] in
  let b = Bitset.of_list 70 [ 5; 6 ] in
  let u = Bitset.copy a in
  let changed = Bitset.union_into ~dst:u ~src:b in
  Alcotest.(check bool) "union changed" true changed;
  Alcotest.(check (list int)) "union" [ 1; 5; 6; 64 ] (Bitset.elements u);
  Alcotest.(check bool) "union again unchanged" false
    (Bitset.union_into ~dst:u ~src:b);
  let i = Bitset.copy a in
  ignore (Bitset.inter_into ~dst:i ~src:b);
  Alcotest.(check (list int)) "intersection" [ 5 ] (Bitset.elements i);
  let d = Bitset.copy a in
  ignore (Bitset.diff_into ~dst:d ~src:b);
  Alcotest.(check (list int)) "difference" [ 1; 64 ] (Bitset.elements d);
  Alcotest.(check bool) "width mismatch" true
    (match Bitset.union_into ~dst:a ~src:(Bitset.create 71) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let bitset_props =
  let gen_elems = QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 199)) in
  [
    QCheck.Test.make ~name:"bitset of_list/elements = sort_uniq" gen_elems
      (fun l ->
        Bitset.elements (Bitset.of_list 200 l) = List.sort_uniq compare l);
    QCheck.Test.make ~name:"bitset union is commutative"
      (QCheck.pair gen_elems gen_elems) (fun (la, lb) ->
        let u1 = Bitset.of_list 200 la in
        ignore (Bitset.union_into ~dst:u1 ~src:(Bitset.of_list 200 lb));
        let u2 = Bitset.of_list 200 lb in
        ignore (Bitset.union_into ~dst:u2 ~src:(Bitset.of_list 200 la));
        Bitset.equal u1 u2);
    QCheck.Test.make ~name:"bitset diff then union restores superset"
      (QCheck.pair gen_elems gen_elems) (fun (la, lb) ->
        let a = Bitset.of_list 200 la in
        let d = Bitset.copy a in
        ignore (Bitset.diff_into ~dst:d ~src:(Bitset.of_list 200 lb));
        ignore (Bitset.union_into ~dst:d ~src:(Bitset.of_list 200 lb));
        List.for_all (Bitset.mem d) la);
    (* iter and cardinal walk set bits only; check them against a
       bit-by-bit reference over random widths, including the top bit of
       a word (62 on 64-bit hosts, the sign bit) and the empty set. *)
    QCheck.Test.make ~name:"bitset iter/cardinal = naive scan" ~count:300
      QCheck.(
        pair (int_range 0 300)
          (pair bool (list_of_size (Gen.int_range 0 60) (int_range 0 299))))
      (fun (width, (top_bits, l)) ->
        let s = Bitset.create width in
        List.iter (fun i -> if i < width then Bitset.add s i) l;
        if top_bits then
          List.iter
            (fun i -> if i < width then Bitset.add s i)
            [ Sys.int_size - 1; (2 * Sys.int_size) - 1; Sys.int_size ];
        let naive = List.filter (Bitset.mem s) (List.init width Fun.id) in
        let visited = ref [] in
        Bitset.iter (fun i -> visited := i :: !visited) s;
        List.rev !visited = naive && Bitset.cardinal s = List.length naive);
    (* iter_ranked against ranks counted bit by bit, with dense words
       (every popcount lane) and the top bit of a word in play. *)
    QCheck.Test.make ~name:"bitset iter_ranked = naive ranks" ~count:300
      QCheck.(
        pair (int_range 1 300)
          (triple (list_of_size (Gen.int_range 0 200) (int_range 0 299))
             (list_of_size (Gen.int_range 0 200) (int_range 0 299))
             (list_of_size (Gen.int_range 0 200) (int_range 0 299))))
      (fun (width, (la, lw, lb)) ->
        let mk l =
          let s = Bitset.create width in
          List.iter (fun i -> Bitset.add s (i mod width)) l;
          Bitset.add s (min (width - 1) (Sys.int_size - 1));
          s
        in
        let a = mk la and w = mk lw and b = mk lb in
        let rank s i =
          List.length (List.filter (fun j -> j < i) (Bitset.elements s))
        in
        let naive =
          List.map
            (fun i -> (i, rank w i, rank b i))
            (List.filter (Bitset.mem w) (Bitset.elements a))
        in
        let got = ref [] in
        Bitset.iter_ranked
          (fun i rw rb -> got := (i, rw, rb) :: !got)
          a ~within:w ~also:b;
        List.rev !got = naive);
  ]

(* ---------------- liveness ---------------- *)

(* entry -> loop(head, body) -> exit with a loop-carried temp *)
let loop_func () =
  let b = B.create ~name:"f" in
  let x = B.temp b Rclass.Int ~name:"x" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let dead = B.temp b Rclass.Int ~name:"dead" in
  B.start_block b "entry";
  B.li b x 0;
  B.li b i 0;
  B.li b dead 42;
  B.start_block b "head";
  B.branch b Instr.Lt (Operand.temp i) (Operand.int 10) ~ifso:"body"
    ~ifnot:"exit";
  B.start_block b "body";
  B.bin b Instr.Add x (Operand.temp x) (Operand.temp i);
  B.bin b Instr.Add i (Operand.temp i) (Operand.int 1);
  B.jump b "head";
  B.start_block b "exit";
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (Operand.temp x);
  B.ret b;
  (B.finish b, x, i, dead)

let test_liveness_loop () =
  let f, x, i, dead = loop_func () in
  let lv = Liveness.compute f in
  let idx = Cfg.block_index (Func.cfg f) in
  let live_in_head = Liveness.live_in lv (idx "head") in
  Alcotest.(check bool) "x live into head" true
    (Bitset.mem live_in_head (Temp.id x));
  Alcotest.(check bool) "i live into head" true
    (Bitset.mem live_in_head (Temp.id i));
  Alcotest.(check bool) "dead def not live" false
    (Bitset.mem live_in_head (Temp.id dead));
  Alcotest.(check bool) "x live out of body" true
    (Bitset.mem (Liveness.live_out lv (idx "body")) (Temp.id x));
  Alcotest.(check bool) "nothing live out of exit" true
    (Bitset.is_empty (Liveness.live_out lv (idx "exit")));
  Alcotest.(check bool) "live across blocks includes x" true
    (Bitset.mem (Liveness.live_across_blocks lv) (Temp.id x))

let test_liveness_diamond_partial () =
  (* y defined on one arm only: live out of entry? No — but live into the
     join from the arm that defines it, and into the other arm only if
     used... here y is used at the join, so it is live through the arm
     that does not define it. *)
  let b = B.create ~name:"f" in
  let y = B.temp b Rclass.Int in
  let c = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b c 1;
  B.li b y 0;
  B.branch b Instr.Eq (Operand.temp c) (Operand.int 0) ~ifso:"a" ~ifnot:"bb";
  B.start_block b "a";
  B.li b y 5;
  B.jump b "join";
  B.start_block b "bb";
  B.nop b;
  B.jump b "join";
  B.start_block b "join";
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (Operand.temp y);
  B.ret b;
  let f = B.finish b in
  let lv = Liveness.compute f in
  let idx = Cfg.block_index (Func.cfg f) in
  Alcotest.(check bool) "y live through bb" true
    (Bitset.mem (Liveness.live_in lv (idx "bb")) (Temp.id y));
  Alcotest.(check bool) "y not live into a (redefined)" false
    (Bitset.mem (Liveness.live_in lv (idx "a")) (Temp.id y))

let test_compressed_liveness_equivalent () =
  (* the paper's bit-vector compression must be invisible: identical
     live-in/out sets on well-defined programs *)
  let machine = Machine.alpha_like in
  for seed = 0 to 14 do
    let params =
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    in
    let prog = Lsra_workloads.Gen.program ~params machine in
    List.iter
      (fun (_, f) ->
        let a = Liveness.compute ~compress:true f in
        let b = Liveness.compute ~compress:false f in
        Array.iteri
          (fun i blk ->
            if
              (not (Bitset.equal (Liveness.live_in a i) (Liveness.live_in b i)))
              || not
                   (Bitset.equal (Liveness.live_out a i)
                      (Liveness.live_out b i))
            then
              Alcotest.failf "seed %d, block %s: compressed liveness differs"
                seed (Block.label blk))
          (Cfg.blocks (Func.cfg f)))
      (Program.funcs prog)
  done

(* ---------------- dominators and loops ---------------- *)

let test_dominators () =
  let f, _, _, _ = loop_func () in
  let cfg = Func.cfg f in
  let dom = Dom.compute cfg in
  let i l = Cfg.block_index cfg l in
  Alcotest.(check bool) "entry dominates everything" true
    (List.for_all
       (fun l -> Dom.dominates dom (i "entry") (i l))
       [ "entry"; "head"; "body"; "exit" ]);
  Alcotest.(check bool) "head dominates body" true
    (Dom.dominates dom (i "head") (i "body"));
  Alcotest.(check bool) "body does not dominate exit" false
    (Dom.dominates dom (i "body") (i "exit"));
  Alcotest.(check (option int))
    "idom of body is head"
    (Some (i "head"))
    (Dom.idom dom (i "body"));
  Alcotest.(check (option int)) "entry has no idom" None
    (Dom.idom dom (i "entry"))

let test_loop_depth () =
  let b = B.create ~name:"f" in
  let i = B.temp b Rclass.Int in
  let j = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b i 0;
  B.start_block b "outer";
  B.li b j 0;
  B.start_block b "inner";
  B.bin b Instr.Add j (Operand.temp j) (Operand.int 1);
  B.branch b Instr.Lt (Operand.temp j) (Operand.int 3) ~ifso:"inner"
    ~ifnot:"outer_latch";
  B.start_block b "outer_latch";
  B.bin b Instr.Add i (Operand.temp i) (Operand.int 1);
  B.branch b Instr.Lt (Operand.temp i) (Operand.int 3) ~ifso:"outer"
    ~ifnot:"exit";
  B.start_block b "exit";
  B.ret b;
  let f = B.finish b in
  let cfg = Func.cfg f in
  let loops = Loop.compute cfg in
  let d l = Loop.depth loops (Cfg.block_index cfg l) in
  Alcotest.(check int) "entry depth 0" 0 (d "entry");
  Alcotest.(check int) "outer header depth 1" 1 (d "outer");
  Alcotest.(check int) "inner depth 2" 2 (d "inner");
  Alcotest.(check int) "outer latch depth 1" 1 (d "outer_latch");
  Alcotest.(check int) "exit depth 0" 0 (d "exit");
  Alcotest.(check int) "max depth" 2 (Loop.max_depth loops);
  Alcotest.(check int) "two headers" 2 (List.length (Loop.headers loops))

let test_unreachable_blocks () =
  let mk l t body = Block.make ~label:l ~body ~term:t in
  let cfg =
    Cfg.create ~entry:"e"
      [ mk "e" Block.Ret [||]; mk "island" (Block.Jump "island") [||] ]
  in
  let dom = Dom.compute cfg in
  Alcotest.(check bool) "island unreachable" false
    (Dom.reachable dom (Cfg.block_index cfg "island"));
  (* loop analysis must not loop forever on it *)
  let loops = Loop.compute cfg in
  Alcotest.(check int) "island depth 0" 0
    (Loop.depth loops (Cfg.block_index cfg "island"))

(* ---------------- dataflow engine ---------------- *)

let test_dataflow_rounds () =
  (* straight-line chain: backward union should converge in ~2 rounds *)
  let mk l t = Block.make ~label:l ~body:[||] ~term:t in
  let cfg =
    Cfg.create ~entry:"a"
      [ mk "a" (Block.Jump "b"); mk "b" (Block.Jump "c"); mk "c" Block.Ret ]
  in
  let rounds = ref 0 in
  let gen i =
    let s = Bitset.create 4 in
    if Block.label (Cfg.blocks cfg).(i) = "c" then Bitset.add s 1;
    s
  in
  let kill _ = Bitset.create 4 in
  let r =
    Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
      ~width:4 ~gen ~kill ~rounds ()
  in
  Alcotest.(check bool) "bit propagates to a" true
    (Bitset.mem r.Dataflow.in_of.(0) 1);
  Alcotest.(check bool) "terminates quickly" true (!rounds <= 3)

let test_dataflow_forward_inter () =
  (* forward intersection: available-like property killed on one path *)
  let mk l t = Block.make ~label:l ~body:[||] ~term:t in
  let cfg =
    Cfg.create ~entry:"e"
      [
        mk "e"
          (Block.Branch
             { op = Instr.Eq; a = Operand.int 0; b = Operand.int 0; ifso = "l"; ifnot = "r" });
        mk "l" (Block.Jump "j");
        mk "r" (Block.Jump "j");
        mk "j" Block.Ret;
      ]
  in
  let gen i =
    let s = Bitset.create 2 in
    let l = Block.label (Cfg.blocks cfg).(i) in
    if l = "l" then Bitset.add s 0;
    if l = "e" then Bitset.add s 1;
    s
  in
  let kill _ = Bitset.create 2 in
  let r =
    Dataflow.solve cfg ~direction:Dataflow.Forward ~meet:Dataflow.Inter
      ~width:2 ~gen ~kill ()
  in
  let j = Cfg.block_index cfg "j" in
  Alcotest.(check bool) "bit 0 not available at join (one path only)" false
    (Bitset.mem r.Dataflow.in_of.(j) 0);
  Alcotest.(check bool) "bit 1 available at join (both paths)" true
    (Bitset.mem r.Dataflow.in_of.(j) 1)

(* The worklist solver must compute exactly the fixpoint of the
   round-robin reference solver, on arbitrary CFGs (including cycles and
   unreachable islands), for every direction × meet combination. *)
let solver_equivalence_prop =
  QCheck.Test.make ~count:200
    ~name:"worklist dataflow matches round-robin reference"
    QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let label i = "b" ^ string_of_int i in
      let blocks =
        List.init n (fun i ->
            let term =
              match Random.State.int rng 4 with
              | 0 -> Block.Ret
              | 1 -> Block.Jump (label (Random.State.int rng n))
              | _ ->
                Block.Branch
                  {
                    op = Instr.Eq;
                    a = Operand.int 0;
                    b = Operand.int 0;
                    ifso = label (Random.State.int rng n);
                    ifnot = label (Random.State.int rng n);
                  }
            in
            Block.make ~label:(label i) ~body:[||] ~term)
      in
      let cfg = Cfg.create ~entry:(label 0) blocks in
      let width = 24 in
      let random_set () =
        let s = Bitset.create width in
        for j = 0 to width - 1 do
          if Random.State.bool rng then Bitset.add s j
        done;
        s
      in
      let gk = Hashtbl.create 16 in
      List.iter
        (fun b ->
          Hashtbl.replace gk (Block.label b) (random_set (), random_set ()))
        blocks;
      let sets i = Hashtbl.find gk (Block.label (Cfg.blocks cfg).(i)) in
      let gen i = fst (sets i) in
      let kill i = snd (sets i) in
      let same a b =
        Array.length a = Array.length b
        && Array.for_all2 Bitset.equal a b
      in
      List.for_all
        (fun (direction, meet) ->
          let w = Dataflow.solve cfg ~direction ~meet ~width ~gen ~kill () in
          let r =
            Dataflow.solve_reference cfg ~direction ~meet ~width ~gen ~kill ()
          in
          same w.Dataflow.in_of r.Dataflow.in_of
          && same w.Dataflow.out_of r.Dataflow.out_of)
        [
          (Dataflow.Backward, Dataflow.Union);
          (Dataflow.Backward, Dataflow.Inter);
          (Dataflow.Forward, Dataflow.Union);
          (Dataflow.Forward, Dataflow.Inter);
        ])

(* ---------------- dead code elimination ---------------- *)

let test_dce () =
  let f, _, _, dead = loop_func () in
  let n_before = Func.n_instrs f in
  let removed, _ = Dce.run_to_fixpoint f in
  Alcotest.(check bool) "removed the dead init" true (removed >= 1);
  Alcotest.(check int) "instruction count dropped" (n_before - removed)
    (Func.n_instrs f);
  (* the dead temp must be gone *)
  Alcotest.(check bool) "dead temp vanished" true
    (not (List.exists (fun t -> Temp.equal t dead) (Func.temps f)))

let test_dce_keeps_side_effects () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 7;
  B.store b (Operand.temp t) (Operand.int 0) 0;
  let u = B.temp b Rclass.Int in
  B.li b u 9 (* dead *);
  B.ret b;
  let f = B.finish b in
  let removed, _ = Dce.run_to_fixpoint f in
  Alcotest.(check int) "only the dead li removed" 1 removed

let test_dce_preserves_behaviour () =
  (* differential: random programs behave identically after DCE *)
  let machine = Machine.alpha_like in
  for seed = 0 to 9 do
    let params =
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    in
    let prog = Lsra_workloads.Gen.program ~params machine in
    let before = Lsra_sim.Interp.run machine prog ~input:"abc" in
    let copy = Program.copy prog in
    List.iter (fun (_, f) -> ignore (Dce.run_to_fixpoint f)) (Program.funcs copy);
    let after = Lsra_sim.Interp.run machine copy ~input:"abc" in
    match before, after with
    | Ok a, Ok b ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d output" seed)
        a.Lsra_sim.Interp.output b.Lsra_sim.Interp.output
    | Error e, _ | _, Error e -> Alcotest.failf "seed %d trapped: %s" seed e
  done

(* ---------------- one liveness solve through DCE ---------------- *)

(* Equal at every linear block index, and over the boundary set. *)
let same_liveness a b cfg =
  List.for_all
    (fun i ->
      Bitset.equal (Liveness.live_in a i) (Liveness.live_in b i)
      && Bitset.equal (Liveness.live_out a i) (Liveness.live_out b i))
    (List.init (Cfg.n_blocks cfg) Fun.id)
  && Bitset.equal (Liveness.live_across_blocks a) (Liveness.live_across_blocks b)

(* DCE against the round-by-round reference: the same count, the same
   instructions left, a returned solution equal to a fresh solve of what
   is left, read by block index in every block's live_in and live_out,
   and the CFG's cached edge tables equal to a fresh label build. *)
let dce_matches_reference f =
  let expected = Func.copy f and got = Func.copy f in
  let n_ref = Helpers.dce_round_by_round expected in
  let n, live = Dce.run_to_fixpoint got in
  let text f = Format.asprintf "%a" Func.pp f in
  n = n_ref
  && text expected = text got
  && same_liveness live (Liveness.compute got) (Func.cfg got)
  && Cfg.edge_tables (Func.cfg got)
     = (let t = Helpers.edges_by_labels (Func.cfg got) in
        { Cfg.succs = Array.map fst t; preds = Array.map snd t })

(* Dominators and loops over the integer edge table against the
   label-table reference. *)
let dom_loop_match_reference f =
  let cfg = Func.cfg f in
  let dom = Dom.compute cfg and loops = Loop.compute cfg in
  let idom = Helpers.idoms_by_labels cfg in
  let depth, headers = Helpers.loops_by_labels cfg in
  List.for_all
    (fun i ->
      Dom.reachable dom i = (idom.(i) <> -1)
      && (idom.(i) = -1
         || Dom.idom dom i = if idom.(i) = i then None else Some idom.(i))
      && Loop.depth loops i = depth.(i))
    (List.init (Cfg.n_blocks cfg) Fun.id)
  && Loop.headers loops = headers

let funcs_of prog = List.map snd (Program.funcs prog)

(* Specbench, the Minilang corpus as lowered (before the frontend's own
   cleanup, so DCE has work to do) and every fixture that parses. *)
let fixed_corpus () =
  let m = Machine.alpha_like in
  let spec =
    List.map
      (fun (c : Lsra_workloads.Specbench.case) ->
        (c.Lsra_workloads.Specbench.name, c.Lsra_workloads.Specbench.program))
      (Lsra_workloads.Specbench.all m ~scale:1)
  in
  let mini =
    List.filter_map
      (fun (e : Lsra_workloads.Mini_corpus.entry) ->
        match
          Lsra_frontend.Lower.lower m
            (Lsra_frontend.Parser.parse e.Lsra_workloads.Mini_corpus.source)
        with
        | p -> Some ("mini:" ^ e.Lsra_workloads.Mini_corpus.mname, p)
        | exception _ -> None)
      Lsra_workloads.Mini_corpus.all
  in
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures" in
  let fixtures =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun n -> Filename.check_suffix n ".lsra")
    |> List.filter_map (fun n ->
           let src =
             In_channel.with_open_bin (Filename.concat dir n)
               In_channel.input_all
           in
           match Lsra_text.Ir_text.of_string src with
           | p -> Some ("fixture:" ^ n, p)
           | exception _ -> None)
  in
  Alcotest.(check bool) "corpus has minilang and fixtures" true
    (mini <> [] && fixtures <> []);
  spec @ mini @ fixtures

let test_fixed_corpus_references () =
  let removed = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun f ->
          removed := !removed + Helpers.dce_round_by_round (Func.copy f);
          if not (dce_matches_reference f) then
            Alcotest.failf "%s/%s: DCE differs from round-by-round" name
              (Func.name f);
          if not (dom_loop_match_reference f) then
            Alcotest.failf "%s/%s: Dom/Loop differ from the label tables" name
              (Func.name f))
        (funcs_of prog))
    (fixed_corpus ());
  Alcotest.(check bool) "DCE removed something" true (!removed > 0)

let gen_program_arb =
  QCheck.make
    ~print:(fun (seed, n_temps, n_stmts, max_depth) ->
      Printf.sprintf "seed=%d n_temps=%d n_stmts=%d max_depth=%d" seed n_temps
        n_stmts max_depth)
    QCheck.Gen.(
      quad (int_bound 1_000_000) (int_range 2 14) (int_range 2 30)
        (int_range 1 3))

let gen_program (seed, n_temps, n_stmts, max_depth) =
  Lsra_workloads.Gen.program
    ~params:
      {
        Lsra_workloads.Gen.default_params with
        Lsra_workloads.Gen.seed;
        n_temps;
        n_stmts;
        max_depth;
      }
    Machine.alpha_like

let dce_reference_prop =
  QCheck.Test.make ~count:150 ~name:"dce: one solve = round-by-round"
    gen_program_arb (fun p ->
      List.for_all dce_matches_reference (funcs_of (gen_program p)))

let dom_loop_reference_prop =
  QCheck.Test.make ~count:150 ~name:"dom/loop: edge table = label tables"
    gen_program_arb (fun p ->
      List.for_all dom_loop_match_reference (funcs_of (gen_program p)))

let suite =
  [
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset set operations" `Quick test_bitset_setops;
    Alcotest.test_case "liveness around a loop" `Quick test_liveness_loop;
    Alcotest.test_case "liveness through a diamond" `Quick
      test_liveness_diamond_partial;
    Alcotest.test_case "compressed liveness is equivalent" `Quick
      test_compressed_liveness_equivalent;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loop nesting depth" `Quick test_loop_depth;
    Alcotest.test_case "unreachable blocks" `Quick test_unreachable_blocks;
    Alcotest.test_case "dataflow: backward union" `Quick test_dataflow_rounds;
    Alcotest.test_case "dataflow: forward intersection" `Quick
      test_dataflow_forward_inter;
    Alcotest.test_case "dce removes dead code" `Quick test_dce;
    Alcotest.test_case "dce keeps side effects" `Quick
      test_dce_keeps_side_effects;
    Alcotest.test_case "dce preserves behaviour" `Quick
      test_dce_preserves_behaviour;
    Alcotest.test_case "dce, dom, loop match references on the corpus" `Quick
      test_fixed_corpus_references;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      (bitset_props
      @ [
          solver_equivalence_prop; dce_reference_prop; dom_loop_reference_prop;
        ])
