open Lsra_ir
open Lsra_target
module B = Builder

(* Unit tests for the IR substrate. *)

let t_int n = Temp.make ~cls:Rclass.Int n
let t_float n = Temp.make ~cls:Rclass.Float n

let test_temp_identity () =
  let a = Temp.make ~cls:Rclass.Int 3 in
  let b = Temp.make ~name:"x" ~cls:Rclass.Int 3 in
  Alcotest.(check bool) "equal by id" true (Temp.equal a b);
  Alcotest.(check int) "compare" 0 (Temp.compare a b);
  Alcotest.(check string) "anonymous prints t3" "t3" (Temp.to_string a);
  Alcotest.(check string) "named prints name.3" "x.3" (Temp.to_string b);
  Alcotest.(check bool) "negative id rejected" true
    (match Temp.make ~cls:Rclass.Int (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_temp_collections () =
  let s = Temp.Set.of_list [ t_int 1; t_int 2; t_int 1 ] in
  Alcotest.(check int) "set dedups" 2 (Temp.Set.cardinal s);
  let m = Temp.Map.add (t_int 5) "five" Temp.Map.empty in
  Alcotest.(check (option string))
    "map find" (Some "five")
    (Temp.Map.find_opt (t_float 5) m)
(* note: ids are the identity; class is carried, not compared *)

let test_mreg () =
  let r = Mreg.make ~cls:Rclass.Int 7 in
  let f = Mreg.make ~cls:Rclass.Float 7 in
  Alcotest.(check bool) "class distinguishes" false (Mreg.equal r f);
  Alcotest.(check string) "int print" "$r7" (Mreg.to_string r);
  Alcotest.(check string) "float print" "$f7" (Mreg.to_string f);
  Alcotest.(check bool) "hash distinguishes" true (Mreg.hash r <> Mreg.hash f)

let test_loc_operand () =
  let l1 = Loc.temp (t_int 1) in
  let l2 = Loc.reg (Mreg.make ~cls:Rclass.Int 1) in
  Alcotest.(check bool) "temp <> reg" false (Loc.equal l1 l2);
  Alcotest.(check bool) "is_temp" true (Loc.is_temp l1);
  Alcotest.(check bool) "cls of loc" true
    (Rclass.equal (Loc.cls l2) Rclass.Int);
  Alcotest.(check bool) "operand int cls" true
    (Rclass.equal (Operand.cls (Operand.int 3)) Rclass.Int);
  Alcotest.(check bool) "operand float cls" true
    (Rclass.equal (Operand.cls (Operand.float 3.0)) Rclass.Float);
  Alcotest.(check (option string))
    "as_loc of imm" None
    (Option.map Loc.to_string (Operand.as_loc (Operand.int 4)))

let test_instr_defs_uses () =
  let t1 = t_int 1 and t2 = t_int 2 and t3 = t_int 3 in
  let i =
    Instr.make
      (Instr.Bin
         { op = Instr.Add; dst = Loc.temp t3; a = Operand.temp t1; b = Operand.temp t2 })
  in
  Alcotest.(check (list string))
    "uses in operand order" [ "t1"; "t2" ]
    (List.map Loc.to_string (Helpers.uses i));
  Alcotest.(check (list string))
    "defs" [ "t3" ]
    (List.map Loc.to_string (Helpers.defs i));
  let st =
    Instr.make
      (Instr.Store { src = Operand.temp t1; base = Operand.temp t2; off = 4 })
  in
  Alcotest.(check int) "store has no defs" 0 (List.length (Helpers.defs st));
  Alcotest.(check int) "store uses src and base" 2 (List.length (Helpers.uses st))

let test_instr_call_sets () =
  let r0 = Mreg.make ~cls:Rclass.Int 0 in
  let r1 = Mreg.make ~cls:Rclass.Int 1 in
  let f0 = Mreg.make ~cls:Rclass.Float 0 in
  let c =
    Instr.make
      (Instr.Call
         { func = "f"; args = [ r0 ]; rets = [ r0 ]; clobbers = [ r0; r1; f0 ] })
  in
  Alcotest.(check int) "call uses args" 1 (List.length (Helpers.uses c));
  Alcotest.(check int) "call defs clobbers" 3 (List.length (Helpers.defs c))

let test_instr_rewrite_preserves_uid () =
  let t1 = t_int 1 in
  let i = Instr.make (Instr.Move { dst = Loc.temp t1; src = Operand.int 3 }) in
  let r = Mreg.make ~cls:Rclass.Int 4 in
  let i' = Instr.rewrite ~use:(fun l -> l) ~def:(fun _ -> Loc.Reg r) i in
  Alcotest.(check int) "uid preserved" (Instr.uid i) (Instr.uid i');
  Alcotest.(check (list string))
    "def rewritten" [ "$r4" ]
    (List.map Loc.to_string (Helpers.defs i'))

let test_is_move () =
  let t1 = t_int 1 and t2 = t_int 2 in
  let m = Instr.make (Instr.Move { dst = Loc.temp t1; src = Operand.temp t2 }) in
  let imm = Instr.make (Instr.Move { dst = Loc.temp t1; src = Operand.int 2 }) in
  Alcotest.(check bool) "temp move is a move" true (Instr.is_move m <> None);
  Alcotest.(check bool) "imm move is not" true (Instr.is_move imm = None)

let test_block_succs () =
  let b =
    Block.make ~label:"x" ~body:[||]
      ~term:
        (Block.Branch
           { op = Instr.Lt; a = Operand.int 0; b = Operand.int 1; ifso = "a"; ifnot = "a" })
  in
  Alcotest.(check (list string)) "same-target branch dedups" [ "a" ]
    (Block.succ_labels b);
  Block.retarget_term b ~from:"a" ~to_:"b";
  Alcotest.(check (list string)) "retarget hits both arms" [ "b" ]
    (Block.succ_labels b)

let test_cfg_structure () =
  let mk l t = Block.make ~label:l ~body:[||] ~term:t in
  let cfg =
    Cfg.create ~entry:"e"
      [
        mk "e" (Block.Jump "a");
        mk "a"
          (Block.Branch
             { op = Instr.Eq; a = Operand.int 0; b = Operand.int 0; ifso = "e"; ifnot = "x" });
        mk "x" Block.Ret;
      ]
  in
  Alcotest.(check int) "three blocks" 3 (Cfg.n_blocks cfg);
  Alcotest.(check int) "entry index" 0 (Cfg.block_index cfg "e");
  let preds = Cfg.preds_table cfg in
  Alcotest.(check (list string)) "preds of e" [ "a" ] (Hashtbl.find preds "e");
  Alcotest.(check int) "edge count" 3
    (Array.fold_left
       (fun n s -> n + Array.length s)
       0 (Cfg.edge_tables cfg).Cfg.succs);
  Alcotest.(check bool) "duplicate label rejected" true
    (match Cfg.create ~entry:"e" [ mk "e" Block.Ret; mk "e" Block.Ret ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false);
  Alcotest.(check bool) "missing entry rejected" true
    (match Cfg.create ~entry:"zz" [ mk "e" Block.Ret ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false);
  Alcotest.(check bool) "dangling target rejected by validate" true
    (match Cfg.validate (Cfg.create ~entry:"e" [ mk "e" (Block.Jump "nowhere") ]) with
    | exception Cfg.Malformed _ -> true
    | _ -> false)

let test_builder_basics () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 1;
  B.start_block b "next" (* implicit fall-through jump *);
  B.ret b;
  let f = B.finish b in
  Alcotest.(check int) "two blocks" 2 (Cfg.n_blocks (Func.cfg f));
  (match Block.term (Cfg.block (Func.cfg f) "entry") with
  | Block.Jump "next" -> ()
  | _ -> Alcotest.fail "expected fall-through jump");
  Alcotest.(check int) "one temp" 1 (List.length (Func.temps f))

let test_builder_errors () =
  Alcotest.(check bool) "finish with open block fails" true
    (let b = B.create ~name:"f" in
     B.start_block b "entry";
     match B.finish b with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "emit outside block fails" true
    (let b = B.create ~name:"f" in
     match B.nop b with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "empty function fails" true
    (let b = B.create ~name:"f" in
     match B.finish b with exception Invalid_argument _ -> true | _ -> false)

let test_func_validate_classes () =
  Alcotest.(check bool) "class mismatch rejected" true
    (let b = B.create ~name:"f" in
     let ti = B.temp b Rclass.Int in
     let tf = B.temp b Rclass.Float in
     B.start_block b "entry";
     B.insn b (Instr.Move { dst = Loc.temp ti; src = Operand.temp tf });
     B.ret b;
     match B.finish b with
     | exception Cfg.Malformed _ -> true
     | _ -> false)

let test_func_copy_isolation () =
  let b = B.create ~name:"f" in
  let t = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b t 1;
  B.ret b;
  let f = B.finish b in
  let g = Func.copy f in
  Block.set_body (Cfg.block (Func.cfg g) "entry") [||];
  Alcotest.(check int) "original body unchanged" 1
    (Array.length (Block.body (Cfg.block (Func.cfg f) "entry")));
  Alcotest.(check int) "copy body changed" 0
    (Array.length (Block.body (Cfg.block (Func.cfg g) "entry")))

let test_fresh_label_avoids_collisions () =
  let b = B.create ~name:"f" in
  B.start_block b "entry";
  B.ret b;
  let f = B.finish b in
  let l1 = Func.fresh_label f in
  let l2 = Func.fresh_label f in
  Alcotest.(check bool) "fresh labels distinct" true (l1 <> l2);
  Alcotest.(check bool) "not an existing label" true
    (l1 <> "entry" && not (Cfg.mem (Func.cfg f) l1))

let test_program_lookup () =
  let b = B.create ~name:"m" in
  B.start_block b "entry";
  B.ret b;
  let f = B.finish b in
  let p = Program.create ~main:"m" [ ("m", f) ] in
  Alcotest.(check bool) "find main" true (Program.find p "m" <> None);
  Alcotest.(check bool) "find missing" true (Program.find p "q" = None);
  Alcotest.(check bool) "missing main rejected" true
    (match Program.create ~main:"zz" [ ("m", f) ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate function rejected" true
    (match Program.create ~main:"m" [ ("m", f); ("m", f) ] with
    | exception Cfg.Malformed _ -> true
    | _ -> false)

let test_machine_conventions () =
  let m = Machine.alpha_like in
  Alcotest.(check int) "27 int regs" 27 (Machine.n_regs m Rclass.Int);
  Alcotest.(check int) "6 int args" 6 (List.length (Machine.int_args m));
  Alcotest.(check bool) "arg regs are caller-saved" true
    (List.for_all (Machine.is_caller_saved m) (Machine.int_args m));
  Alcotest.(check bool) "ret reg is caller-saved" true
    (Machine.is_caller_saved m (Machine.int_ret m));
  Alcotest.(check int) "caller+callee = all" 27
    (List.length (Machine.caller_saved m Rclass.Int)
    + List.length (Machine.callee_saved m Rclass.Int));
  Alcotest.(check bool) "arg_reg out of range" true
    (match Machine.arg_reg m Rclass.Int 99 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "too-small machine rejected" true
    (match
       Machine.make ~name:"x" ~int_regs:1 ~float_regs:1 ~int_caller_saved:1
         ~float_caller_saved:1 ~n_int_args:0 ~n_float_args:0
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_regidx_bijection () =
  let m = Machine.alpha_like in
  let idx = Lsra.Regidx.create m in
  let total = Lsra.Regidx.total idx in
  Alcotest.(check int) "total = int + float" 55 total;
  for i = 0 to total - 1 do
    Alcotest.(check int) "round-trip" i
      (Lsra.Regidx.of_reg idx (Lsra.Regidx.to_reg idx i))
  done

let test_regidx_shared () =
  let idx = Lsra.Regidx.create Machine.alpha_like in
  for i = 0 to Lsra.Regidx.total idx - 1 do
    Alcotest.(check bool) "same value every call" true
      (Lsra.Regidx.to_reg idx i == Lsra.Regidx.to_reg idx i)
  done

(* ---------------- operand walks ---------------- *)

let same_locs = List.equal Loc.equal

(* Every walk visits exactly its reference list, in order, and
   [Loc.collect] over each walk agrees with both. *)
let walks_match_reference f =
  Array.for_all
    (fun b ->
      Array.for_all
        (fun i ->
          same_locs (Helpers.walked Instr.iter_uses i) (Helpers.ref_uses i)
          && same_locs (Helpers.walked Instr.iter_defs i) (Helpers.ref_defs i)
          && same_locs (Helpers.uses i) (Helpers.ref_uses i)
          && same_locs (Helpers.defs i) (Helpers.ref_defs i))
        (Block.body b)
      && same_locs
           (Helpers.walked Block.iter_term_uses b)
           (Helpers.ref_term_uses b)
      && same_locs (Helpers.term_uses b) (Helpers.ref_term_uses b))
    (Cfg.blocks (Func.cfg f))

let walk_machines =
  [ ("alpha", Machine.alpha_like); ("small-8", Lsra_sim.Sweep.small_8) ]

let walks_prop =
  QCheck.Test.make ~count:60
    ~name:"operand walks = uses/defs/term_uses, before and after allocation"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, hostile) ->
      List.for_all
        (fun (_, m) ->
          let params =
            if hostile then Lsra_workloads.Gen.hostile_params ~seed
            else
              { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
          in
          let prog = Lsra_workloads.Gen.program ~params m in
          List.for_all
            (fun (_, f) ->
              walks_match_reference f
              &&
              (ignore
                 (Lsra.Allocator.run Lsra.Allocator.default_second_chance m f);
               walks_match_reference f))
            (Program.funcs prog))
        walk_machines)

(* The walks allocate nothing, even over a call carrying the whole
   caller-saved clobber set, so the analyses can run them on every
   instruction. *)
let test_walks_allocate_nothing () =
  let m = Machine.alpha_like in
  let clobbers = Machine.all_caller_saved m in
  Alcotest.(check int) "alpha's clobber set" 29 (List.length clobbers);
  let call =
    Instr.make
      (Instr.Call
         {
           func = "f";
           args =
             [ Machine.arg_reg m Rclass.Int 0; Machine.arg_reg m Rclass.Int 1 ];
           rets = [ Machine.int_ret m ];
           clobbers;
         })
  in
  let bin =
    Instr.make
      (Instr.Bin
         { op = Instr.Add; dst = Loc.temp (t_int 3); a = Operand.temp (t_int 1);
           b = Operand.reg (Machine.int_ret m) })
  in
  let blk =
    Block.make ~label:"b" ~body:[| call; bin |]
      ~term:
        (Block.Branch
           { op = Instr.Lt; a = Operand.temp (t_int 3); b = Operand.int 0;
             ifso = "b"; ifnot = "b" })
  in
  let n = ref 0 in
  let temp (_ : Temp.t) = incr n and reg (_ : Mreg.t) = incr n in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Instr.iter_uses ~temp ~reg call;
    Instr.iter_defs ~temp ~reg call;
    Instr.iter_uses ~temp ~reg bin;
    Instr.iter_defs ~temp ~reg bin;
    Block.iter_term_uses ~temp ~reg blk
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words" 0. words;
  Alcotest.(check int) "operands visited" (1000 * (2 + 29 + 2 + 1 + 1)) !n

(* ---------------- integer edge tables ---------------- *)

let tables_match cfg =
  let { Cfg.succs; preds } = Cfg.edge_tables cfg in
  let expected = Helpers.edges_by_labels cfg in
  Array.length succs = Array.length expected
  && Array.length preds = Array.length expected
  && Array.for_all2 (fun s (s', _) -> s = s') succs expected
  && Array.for_all2 (fun p (_, p') -> p = p') preds expected

(* The cached tables follow every mutation that can change an edge:
   appended blocks, reordering, retargeting, a new terminator (to the
   same targets or others) and copying, whether or not they were read in
   between. *)
let edge_tables_prop =
  QCheck.Test.make ~count:300 ~name:"cfg: cached edge tables = label build"
    QCheck.(pair (int_range 1 8) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let labels = ref (List.init n (fun i -> "b" ^ string_of_int i)) in
      let pick () =
        List.nth !labels (Random.State.int rng (List.length !labels))
      in
      let operand () =
        if Random.State.bool rng then Operand.int (Random.State.int rng 9)
        else Operand.temp (t_int (Random.State.int rng 9))
      in
      let term () =
        match Random.State.int rng 4 with
        | 0 -> Block.Ret
        | 1 -> Block.Jump (pick ())
        | _ ->
          Block.Branch
            { op = Instr.Eq; a = operand (); b = operand (); ifso = pick ();
              ifnot = pick () }
      in
      let cfg =
        ref
          (Cfg.create ~entry:"b0"
             (List.map (fun l -> Block.make ~label:l ~body:[||] ~term:(term ())) !labels))
      in
      let block () =
        (Cfg.blocks !cfg).(Random.State.int rng (Cfg.n_blocks !cfg))
      in
      let ok = ref (tables_match !cfg) in
      for step = 1 to 12 do
        (match Random.State.int rng 6 with
        | 0 ->
          let l = "n" ^ string_of_int step in
          labels := !labels @ [ l ];
          Cfg.append_block !cfg (Block.make ~label:l ~body:[||] ~term:(term ()))
        | 1 ->
          let rest = List.filter (fun l -> l <> "b0") !labels in
          let a = Array.of_list rest in
          for i = Array.length a - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let x = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- x
          done;
          Cfg.reorder !cfg ("b0" :: Array.to_list a)
        | 2 -> (
          let b = block () in
          match Block.succ_labels b with
          | [] -> ()
          | ls ->
            let from = List.nth ls (Random.State.int rng (List.length ls)) in
            Block.retarget_term b ~from ~to_:(pick ()))
        | 3 -> Block.set_term (block ()) (term ())
        | 4 -> (
          (* Same targets, new operands: the scan's terminator rewrite. *)
          let b = block () in
          match Block.term b with
          | Block.Branch br ->
            Block.set_term b
              (Block.Branch { br with a = operand (); b = operand () })
          | Block.Jump l ->
            (* A fresh string with the same contents. *)
            Block.set_term b (Block.Jump (String.sub l 0 (String.length l)))
          | Block.Ret -> Block.set_term b Block.Ret)
        | _ -> cfg := Cfg.copy !cfg);
        if Random.State.bool rng then ok := !ok && tables_match !cfg
      done;
      !ok && tables_match !cfg)

let suite =
  [
    Alcotest.test_case "temp identity" `Quick test_temp_identity;
    Alcotest.test_case "temp collections" `Quick test_temp_collections;
    Alcotest.test_case "machine registers" `Quick test_mreg;
    Alcotest.test_case "locations and operands" `Quick test_loc_operand;
    Alcotest.test_case "instruction defs/uses" `Quick test_instr_defs_uses;
    Alcotest.test_case "call defs/uses" `Quick test_instr_call_sets;
    Alcotest.test_case "rewrite preserves uid" `Quick
      test_instr_rewrite_preserves_uid;
    Alcotest.test_case "is_move" `Quick test_is_move;
    Alcotest.test_case "block successors" `Quick test_block_succs;
    Alcotest.test_case "cfg structure and errors" `Quick test_cfg_structure;
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "class validation" `Quick test_func_validate_classes;
    Alcotest.test_case "copy isolation" `Quick test_func_copy_isolation;
    Alcotest.test_case "fresh labels" `Quick test_fresh_label_avoids_collisions;
    Alcotest.test_case "program lookup and errors" `Quick test_program_lookup;
    Alcotest.test_case "machine conventions" `Quick test_machine_conventions;
    Alcotest.test_case "register index bijection" `Quick test_regidx_bijection;
    Alcotest.test_case "register index shares registers" `Quick
      test_regidx_shared;
    Alcotest.test_case "operand walks allocate nothing" `Quick
      test_walks_allocate_nothing;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ walks_prop; edge_tables_prop ]
