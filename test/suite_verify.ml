open Lsra_ir
open Lsra_target
module B = Builder

(* The verifier must accept correct allocations (covered throughout the
   rest of the suite) and reject corrupted ones. Each test allocates a
   function, then injects a specific bug an allocator could plausibly
   have, and checks the verifier pinpoints it. *)

let machine = Machine.small ~int_regs:4 ~float_regs:4 ()

let make_func () =
  let b = B.create ~name:"f" in
  let x = B.temp b Rclass.Int ~name:"x" in
  let y = B.temp b Rclass.Int ~name:"y" in
  B.start_block b "entry";
  B.li b x 1;
  B.li b y 2;
  B.branch b Instr.Lt (Operand.temp x) (Operand.int 5) ~ifso:"a" ~ifnot:"bb";
  B.start_block b "a";
  B.bin b Instr.Add x (Operand.temp x) (Operand.temp y);
  B.jump b "join";
  B.start_block b "bb";
  B.bin b Instr.Sub x (Operand.temp x) (Operand.temp y);
  B.jump b "join";
  B.start_block b "join";
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp x);
  B.ret b;
  B.finish b

let allocated_pair () =
  let f = make_func () in
  let original = Func.copy f in
  Helpers.second_chance machine f;
  (original, f)

let expect_reject name original allocated =
  match Lsra.Verify.check machine ~original ~allocated with
  | Ok () -> Alcotest.failf "%s: verifier accepted a corrupted allocation" name
  | Error _ -> ()

let test_accepts_correct () =
  let original, allocated = allocated_pair () in
  match Lsra.Verify.check machine ~original ~allocated with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected: %s (%s)" e.Lsra.Verify.what e.Lsra.Verify.where

let map_instr_in_block f label fn =
  let b = Cfg.block (Func.cfg f) label in
  Block.set_body b (Array.map fn (Block.body b))

let test_rejects_wrong_register () =
  let original, allocated = allocated_pair () in
  (* rewrite one use to a different register *)
  let evil = Mreg.make ~cls:Rclass.Int 3 in
  let changed = ref false in
  map_instr_in_block allocated "a" (fun i ->
      match Instr.desc i with
      | Instr.Bin { op; dst; a; b = _ } when not !changed ->
        changed := true;
        Instr.with_desc i
          (Instr.Bin { op; dst; a; b = Operand.Loc (Loc.Reg evil) })
      | _ -> i);
  Alcotest.(check bool) "mutation applied" true !changed;
  expect_reject "wrong register" original allocated

let test_rejects_leftover_temp () =
  let original, allocated = allocated_pair () in
  let t = Temp.make ~cls:Rclass.Int 0 in
  map_instr_in_block allocated "join" (fun i ->
      match Instr.desc i with
      | Instr.Move { dst; _ } ->
        Instr.with_desc i (Instr.Move { dst; src = Operand.temp t })
      | _ -> i);
  expect_reject "leftover temporary" original allocated

let test_rejects_dropped_spill_store () =
  (* force spills with a tiny machine, then delete the first spill store *)
  let machine = Machine.small ~int_regs:3 ~float_regs:3 () in
  let f = Helpers.pressure_func ~width:6 ~iters:4 in
  let original = Func.copy f in
  Helpers.second_chance machine f;
  let deleted = ref false in
  Cfg.iter_blocks
    (fun b ->
      if not !deleted then
        let body = Block.body b in
        let keep =
          Array.to_list body
          |> List.filter (fun i ->
                 match Instr.desc i, !deleted with
                 | Instr.Spill_store _, false ->
                   deleted := true;
                   false
                 | _ -> true)
        in
        if !deleted then Block.set_body b (Array.of_list keep))
    (Func.cfg f);
  if !deleted then
    match Lsra.Verify.check machine ~original ~allocated:f with
    | Ok () -> Alcotest.fail "verifier accepted a missing spill store"
    | Error _ -> ()
  else Alcotest.fail "expected the allocation to contain a spill store"

let test_rejects_swapped_resolution_moves () =
  (* corrupting a resolution move's source must be caught *)
  let machine = Machine.small ~int_regs:3 ~float_regs:3 () in
  let f = Helpers.pressure_func ~width:6 ~iters:4 in
  let original = Func.copy f in
  Helpers.second_chance machine f;
  let changed = ref false in
  Cfg.iter_blocks
    (fun b ->
      Block.set_body b
        (Array.map
           (fun i ->
             match Instr.tag i, Instr.desc i with
             | Instr.Spill _, Instr.Spill_load { dst; slot } when not !changed
               ->
               changed := true;
               (* load from the wrong slot *)
               Instr.with_desc i (Instr.Spill_load { dst; slot = slot + 1 })
             | _ -> i)
           (Block.body b)))
    (Func.cfg f);
  if !changed then
    match Lsra.Verify.check machine ~original ~allocated:f with
    | Ok () -> Alcotest.fail "verifier accepted a wrong-slot reload"
    | Error _ -> ()
  else Alcotest.fail "expected a spill load to corrupt"

let test_rejects_clobbered_across_call () =
  (* hand-build an allocation that keeps a value in a caller-saved
     register across a call *)
  let machine = Machine.small ~int_regs:6 ~int_caller_saved:3 () in
  let b = B.create ~name:"f" in
  let x = B.temp b Rclass.Int in
  B.start_block b "entry";
  B.li b x 1;
  B.call b ~func:"ext_getc" ~args:[] ~rets:[ Machine.int_ret machine ]
    ~clobbers:(Machine.all_caller_saved machine);
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp x);
  B.ret b;
  let f = B.finish b in
  let original = Func.copy f in
  (* "allocate" x to caller-saved $r1 by hand *)
  let r1 = Mreg.make ~cls:Rclass.Int 1 in
  let map (l : Loc.t) =
    match l with Loc.Temp _ -> Loc.Reg r1 | Loc.Reg _ -> l
  in
  Cfg.iter_blocks
    (fun blk ->
      Block.set_body blk
        (Array.map (Instr.rewrite ~use:map ~def:map) (Block.body blk));
      Block.rewrite_term blk ~use:map)
    (Func.cfg f);
  expect_reject "value in caller-saved across call" original f

(* Error reports are rendered only when a check fails; these pin the
   exact text of each kind of site, so rendering them lazily cannot
   change what a user sees. *)
let expect_error ~fn ~block ~where ~what original allocated =
  match Lsra.Verify.check machine ~original ~allocated with
  | Ok () -> Alcotest.fail "accepted"
  | Error e ->
    Alcotest.(check string) "fn" fn e.Lsra.Verify.fn;
    Alcotest.(check string) "block" block e.Lsra.Verify.block;
    Alcotest.(check string) "where" where e.Lsra.Verify.where;
    Alcotest.(check string) "what" what e.Lsra.Verify.what

let test_error_message_mentions_site () =
  let original, allocated = allocated_pair () in
  let t = Temp.make ~cls:Rclass.Int 0 in
  map_instr_in_block allocated "join" (fun i ->
      match Instr.desc i with
      | Instr.Move { dst; _ } ->
        Instr.with_desc i (Instr.Move { dst; src = Operand.temp t })
      | _ -> i);
  expect_error ~fn:"f" ~block:"join" ~where:"$r0 := t0"
    ~what:"temporary t0 survives allocation" original allocated

let test_error_instruction_use () =
  let original, allocated = allocated_pair () in
  let evil = Mreg.make ~cls:Rclass.Int 3 in
  map_instr_in_block allocated "a" (fun i ->
      match Instr.desc i with
      | Instr.Bin { op; dst; a; b = _ } ->
        Instr.with_desc i
          (Instr.Bin { op; dst; a; b = Operand.Loc (Loc.Reg evil) })
      | _ -> i);
  expect_error ~fn:"f" ~block:"a" ~where:"$r0 := add $r0, $r3"
    ~what:"use of y.1 reads $r3, whose contents are unknown" original
    allocated

let test_error_terminator_use () =
  let original, allocated = allocated_pair () in
  let evil = Mreg.make ~cls:Rclass.Int 3 in
  Block.rewrite_term
    (Cfg.block (Func.cfg allocated) "entry")
    ~use:(fun _ -> Loc.Reg evil);
  expect_error ~fn:"f" ~block:"entry" ~where:"entry"
    ~what:"terminator use of x.0 unsatisfied" original allocated

let test_error_terminator_temp () =
  let original, allocated = allocated_pair () in
  let t = Temp.make ~cls:Rclass.Int 0 in
  Block.rewrite_term
    (Cfg.block (Func.cfg allocated) "entry")
    ~use:(fun _ -> Loc.Temp t);
  expect_error ~fn:"f" ~block:"entry" ~where:"br.lt t0, 5 ? a : bb"
    ~what:"temporary t0 survives allocation" original allocated

let test_error_resolution_block () =
  (* an edge routed through a block the input never had (as resolution
     inserts them), which returns instead of jumping on *)
  let original, allocated = allocated_pair () in
  let cfg = Func.cfg allocated in
  Cfg.append_block cfg (Block.make ~label:"res" ~body:[||] ~term:Block.Ret);
  Block.retarget_term (Cfg.block cfg "a") ~from:"join" ~to_:"res";
  expect_error ~fn:"f" ~block:"res" ~where:"res"
    ~what:"resolution block with a non-jump terminator" original allocated

(* The intersection-meet case the verifier's header comment describes:
   a value that survives a loop iteration in *different* locations on
   different paths (a register on the even path, another register on the
   odd path) while one location — its spill slot — is common to both.
   Only the fixed-point meet-by-intersection keeps the slot fact alive
   around the back edge; a single-pass or union-based checker would get
   this wrong in one direction or the other. *)

let loop_carried_original () =
  let b = B.create ~name:"f" in
  let x = B.temp b Rclass.Int ~name:"x" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let p = B.temp b Rclass.Int ~name:"p" in
  let a = B.temp b Rclass.Int ~name:"a" in
  let c = B.temp b Rclass.Int ~name:"c" in
  B.start_block b "entry";
  B.li b x 7;
  B.li b i 0;
  B.jump b "head";
  B.start_block b "head";
  B.branch b Instr.Lt (Operand.temp i) (Operand.int 4) ~ifso:"body"
    ~ifnot:"exit";
  B.start_block b "body";
  B.bin b Instr.And p (Operand.temp i) (Operand.int 1);
  B.branch b Instr.Eq (Operand.temp p) (Operand.int 0) ~ifso:"even"
    ~ifnot:"odd";
  B.start_block b "even";
  B.bin b Instr.Add a (Operand.temp x) (Operand.int 1);
  B.jump b "latch";
  B.start_block b "odd";
  B.bin b Instr.Add c (Operand.temp x) (Operand.int 2);
  B.jump b "latch";
  B.start_block b "latch";
  B.bin b Instr.Add i (Operand.temp i) (Operand.int 1);
  B.jump b "head";
  B.start_block b "exit";
  B.move b (Loc.Reg (Machine.int_ret machine)) (Operand.temp x);
  B.ret b;
  (B.finish b, x, i, p, a, c)

(* Hand allocation: i -> $r0 everywhere; x is defined into $r2 and
   stored to slot 0 in the entry; the even path reloads it into $r2, the
   odd path into $r3 (and overwrites $r2 with c), so at the loop head
   the *only* location provably holding x is the slot. *)
let loop_carried_allocated () =
  let f, x, i, p, a, c = loop_carried_original () in
  let allocated = Func.copy f in
  let cfg = Func.cfg allocated in
  let slot = Func.fresh_slot allocated in
  let r k = Loc.Reg (Mreg.make ~cls:Rclass.Int k) in
  let assign pairs (l : Loc.t) =
    match l with
    | Loc.Temp t -> (
      match List.assq_opt (Temp.id t) pairs with
      | Some reg -> reg
      | None -> l)
    | Loc.Reg _ -> l
  in
  let rw pairs instr =
    Instr.rewrite ~use:(assign pairs) ~def:(assign pairs) instr
  in
  let store reg =
    Instr.make
      ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_st })
      (Instr.Spill_store { src = reg; slot })
  in
  let reload reg =
    Instr.make
      ~tag:(Instr.Spill { phase = Instr.Resolve; kind = Instr.Spill_ld })
      (Instr.Spill_load { dst = reg; slot })
  in
  let id = Temp.id in
  let blk label = Cfg.block cfg label in
  (* entry: [li x; li i] becomes [li $r2; store $r2 -> slot; li $r0] *)
  let entry = blk "entry" in
  (match Block.body entry with
  | [| li_x; li_i |] ->
    Block.set_body entry
      [| rw [ (id x, r 2) ] li_x; store (r 2); rw [ (id i, r 0) ] li_i |]
  | _ -> Alcotest.fail "unexpected entry shape");
  Block.rewrite_term (blk "head") ~use:(assign [ (id i, r 0) ]);
  let body = blk "body" in
  Block.set_body body
    (Array.map (rw [ (id p, r 1); (id i, r 0) ]) (Block.body body));
  Block.rewrite_term body ~use:(assign [ (id p, r 1) ]);
  let even = blk "even" in
  Block.set_body even
    (Array.append [| reload (r 2) |]
       (Array.map (rw [ (id a, r 1); (id x, r 2) ]) (Block.body even)));
  let odd = blk "odd" in
  Block.set_body odd
    (Array.append [| reload (r 3) |]
       (Array.map (rw [ (id c, r 2); (id x, r 3) ]) (Block.body odd)));
  let latch = blk "latch" in
  Block.set_body latch (Array.map (rw [ (id i, r 0) ]) (Block.body latch));
  let exitb = blk "exit" in
  Block.set_body exitb
    (Array.append [| reload (r 3) |]
       (Array.map (rw [ (id x, r 3) ]) (Block.body exitb)));
  (f, allocated, slot)

let test_accepts_loop_carried_spill_meet () =
  let original, allocated, _slot = loop_carried_allocated () in
  match Lsra.Verify.check machine ~original ~allocated with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "rejected a correct loop-carried allocation: %s (%s/%s/%s)"
      e.Lsra.Verify.what e.Lsra.Verify.fn e.Lsra.Verify.block
      e.Lsra.Verify.where

let test_rejects_loop_carried_slot_clobber () =
  (* same allocation, but the odd path overwrites x's slot with i after
     reloading: the meet at the head then holds x nowhere, and the exit
     (and even-path) reloads must be rejected *)
  let original, allocated, slot = loop_carried_allocated () in
  let odd = Cfg.block (Func.cfg allocated) "odd" in
  let clobber =
    Instr.make
      ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_st })
      (Instr.Spill_store { src = Loc.Reg (Mreg.make ~cls:Rclass.Int 0); slot })
  in
  Block.set_body odd (Array.append (Block.body odd) [| clobber |]);
  match Lsra.Verify.check machine ~original ~allocated with
  | Ok () -> Alcotest.fail "accepted a clobbered loop-carried spill slot"
  | Error e ->
    Alcotest.(check string) "function context" "f" e.Lsra.Verify.fn;
    Alcotest.(check bool) "block context populated" true
      (String.length e.Lsra.Verify.block > 0)

let test_all_allocators_verify_on_workloads () =
  (* belt-and-braces: the verifier accepts all four allocators across the
     whole workload suite on a spill-heavy machine *)
  let machine = Lsra_sim.Sweep.small_7_7 in
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      List.iter
        (fun algo ->
          let copy = Program.copy case.Lsra_workloads.Specbench.program in
          List.iter
            (fun (n, f) ->
              let original = Func.copy f in
              ignore (Lsra.Allocator.run algo machine f);
              match Lsra.Verify.check machine ~original ~allocated:f with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "%s/%s/%s rejected: %s (%s)"
                  case.Lsra_workloads.Specbench.name
                  (Lsra.Allocator.short_name algo)
                  n e.Lsra.Verify.what e.Lsra.Verify.where)
            (Program.funcs copy))
        Lsra.Allocator.heuristics)
    (Lsra_workloads.Specbench.all machine ~scale:1)

(* A terminator or instruction whose operand count differs from its
   input counterpart (same uid) is a mismatch at its site, not a crash. *)
let test_operand_count_mismatch () =
  let original, allocated = allocated_pair () in
  Block.set_term (Cfg.block (Func.cfg allocated) "entry") Block.Ret;
  expect_error ~fn:"f" ~block:"entry" ~where:"entry"
    ~what:"operand count differs from the input program's" original
    allocated;
  let original, allocated = allocated_pair () in
  map_instr_in_block allocated "a" (fun i ->
      match Instr.desc i with
      | Instr.Bin { dst; a; _ } ->
        Instr.with_desc i (Instr.Un { op = Instr.Neg; dst; src = a })
      | _ -> i);
  expect_error ~fn:"f" ~block:"a" ~where:"$r0 := neg $r0"
    ~what:"operand count differs from the input program's" original
    allocated

(* The library's sparse checker against the dense reference
   ([Verify_ref]): the same verdict and the same error record, on
   allocator output, on cleanup-pass output, and on allocations mutated
   the way an allocator bug would mutate them. *)

let outcome f =
  match f () with
  | () -> "accepted"
  | exception Lsra.Verify.Mismatch { fn; block; where; what } ->
    Printf.sprintf "Mismatch {fn=%s; block=%s; where=%s; what=%s}" fn block
      where what
  | exception e -> "raised " ^ Printexc.to_string e

let agree ~name machine ~original ~indexed ~allocated =
  let dense =
    outcome (fun () -> Verify_ref.run machine ~original ~allocated)
  in
  let sparse =
    outcome (fun () -> Lsra.Verify.run machine ~original ~allocated)
  in
  let shared =
    outcome (fun () -> Lsra.Verify.against machine indexed ~allocated)
  in
  if dense <> sparse || dense <> shared then
    Alcotest.failf "%s: reference %s; sparse %s; shared index %s" name dense
      sparse shared

(* Copies of [f], each with one bug injected at the [j]th candidate
   site (modulo their number): a dropped spill store, a use reading a
   neighbouring register, a spill slot retagged, and an operand count
   changed (a branch turned into a return, or a binary instruction into
   a unary one, keeping its uid). *)
let mutants machine j f =
  let sites f pick =
    Array.to_list (Cfg.blocks (Func.cfg f))
    |> List.concat_map (fun b ->
           List.filter_map
             (fun (k, i) -> pick b k i)
             (List.mapi (fun k i -> (k, i)) (Array.to_list (Block.body b))))
  in
  let edit b k fn =
    let body = Array.to_list (Block.body b) in
    Block.set_body b
      (Array.of_list
         (List.concat (List.mapi (fun k' i -> if k' = k then fn i else [ i ]) body)))
  in
  let mutant label candidates =
    let g = Func.copy f in
    match candidates g with
    | [] -> None
    | cs ->
      (List.nth cs (j mod List.length cs)) ();
      Some (label, g)
  in
  let neighbour r =
    let n = Machine.n_regs machine (Mreg.cls r) in
    Mreg.make ~cls:(Mreg.cls r) ((Mreg.idx r + 1) mod n)
  in
  List.filter_map Fun.id
    [
      mutant "dropped spill store" (fun g ->
          sites g (fun b k i ->
              match Instr.desc i with
              | Instr.Spill_store _ -> Some (fun () -> edit b k (fun _ -> []))
              | _ -> None));
      mutant "swapped register" (fun g ->
          sites g (fun b k i ->
              match Instr.tag i, Instr.desc i, Helpers.uses i with
              | Instr.Original, Instr.Call _, _ -> None
              | Instr.Original, _, Loc.Reg r :: _ ->
                let swap = ref true in
                let use (l : Loc.t) =
                  match l with
                  | Loc.Reg r' when !swap && Mreg.equal r r' ->
                    swap := false;
                    Loc.Reg (neighbour r)
                  | _ -> l
                in
                Some
                  (fun () ->
                    edit b k (fun i -> [ Instr.rewrite ~use ~def:Fun.id i ]))
              | _ -> None));
      mutant "retagged slot" (fun g ->
          let n = max 1 (Func.n_slots g) in
          sites g (fun b k i ->
              let retag d = Some (fun () -> edit b k (fun i -> [ Instr.with_desc i d ])) in
              match Instr.desc i with
              | Instr.Spill_load { dst; slot } ->
                retag (Instr.Spill_load { dst; slot = (slot + 1) mod n })
              | Instr.Spill_store { src; slot } ->
                retag (Instr.Spill_store { src; slot = (slot + 1) mod n })
              | _ -> None));
      mutant "changed operand count" (fun g ->
          let terms =
            Array.to_list (Cfg.blocks (Func.cfg g))
            |> List.filter_map (fun b ->
                   match Block.term b with
                   | Block.Branch _ -> Some (fun () -> Block.set_term b Block.Ret)
                   | Block.Jump _ | Block.Ret -> None)
          in
          terms
          @ sites g (fun b k i ->
                match Instr.tag i, Instr.desc i with
                | Instr.Original, Instr.Bin { dst; a; b = Operand.Loc _; _ } ->
                  Some
                    (fun () ->
                      edit b k (fun i ->
                          [ Instr.with_desc i (Instr.Un { op = Instr.Neg; dst; src = a }) ]))
                | _ -> None));
    ]

(* Allocates a copy of [prog], then checks both checkers agree on every
   function: allocated, under each mutant, and after the cleanup passes
   (against the index built before allocation). Only a known-bad
   program ([may_fail]) may make the allocator raise; it is then not
   checked. *)
let agree_on_program ~name ?(may_fail = false) ?(mutations = [ 0 ]) machine
    algo prog =
  let prog = Program.copy prog in
  let funcs = Program.funcs prog in
  let originals = List.map (fun (n, f) -> (n, Func.copy f)) funcs in
  let indexed = List.map (fun (n, f) -> (n, Lsra.Verify.index f)) funcs in
  match Lsra.Allocator.run_program algo machine prog with
  | exception _ when may_fail -> ()
  | _ ->
    let each stage f =
      List.iter
        (fun (n, allocated) ->
          f
            (Printf.sprintf "%s/%s/%s/%s" name
               (Lsra.Allocator.short_name algo)
               n stage)
            (List.assoc n originals) (List.assoc n indexed) allocated)
        (Program.funcs prog)
    in
    let check name original indexed allocated =
      agree ~name machine ~original ~indexed ~allocated
    in
    each "allocated" (fun name original indexed allocated ->
        check name original indexed allocated;
        List.iter
          (fun j ->
            List.iter
              (fun (label, mutant) ->
                check
                  (Printf.sprintf "%s/%s@%d" name label j)
                  original indexed mutant)
              (mutants machine j allocated))
          mutations);
    List.iter
      (fun pass ->
        ignore (Lsra.Passes.run_pass pass prog);
        each (Lsra.Passes.name pass) check)
      [ Lsra.Passes.Motion; Lsra.Passes.Peephole; Lsra.Passes.Slots ]

let equivalence_machines =
  [ ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ());
    ("small:7:7", Lsra_sim.Sweep.small_7_7) ]

let equivalence_on_gen ~profile params_of =
  QCheck.Test.make
    ~name:(Printf.sprintf "sparse = dense reference on Gen (%s)" profile)
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let mname, machine =
        List.nth equivalence_machines (seed mod List.length equivalence_machines)
      in
      let algo =
        List.nth Lsra.Allocator.heuristics
          (seed / 2 mod List.length Lsra.Allocator.heuristics)
      in
      let prog = Lsra_workloads.Gen.program ~params:(params_of seed) machine in
      agree_on_program
        ~name:(Printf.sprintf "gen %s seed %d on %s" profile seed mname)
        ~mutations:[ seed; seed / 7 ] machine algo prog;
      true)

let test_equivalence_on_corpus_and_fixtures () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures" in
  (* Every fixture that parses: the known-bad programs the oracles must
     reject (hostile_*.lsra are parse errors and stop there). *)
  let fixtures =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun n -> Filename.check_suffix n ".lsra")
    |> List.filter_map (fun n ->
           match
             Lsra_text.Ir_text.of_string
               (In_channel.with_open_bin (Filename.concat dir n)
                  In_channel.input_all)
           with
           | p -> Some ("fixture:" ^ n, p)
           | exception _ -> None)
  in
  Alcotest.(check bool) "fixtures parse" true (List.length fixtures >= 3);
  let programs machine =
    List.map
      (fun (c : Lsra_sim.Sweep.case) -> (c.name, false, c.program))
      (Lsra_sim.Sweep.corpus ~pressure:false ~scale:1 machine)
    @ List.map (fun (name, p) -> (name, true, p)) fixtures
  in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (name, may_fail, prog) ->
          List.iter
            (fun algo ->
              agree_on_program ~name:(mname ^ ":" ^ name) ~may_fail
                ~mutations:[ 0; 5 ] machine algo prog)
            Lsra.Allocator.heuristics)
        (programs machine))
    [ ("alpha", Machine.alpha_like); ("small:7:7", Lsra_sim.Sweep.small_7_7) ]

(* The large pressure functions verify in bounded time and memory: the
   dense state made them cost seconds and gigabytes. *)
let test_large_functions_verify () =
  let machine = Lsra_sim.Sweep.small_7_7 in
  List.iter
    (fun shape ->
      List.iter
        (fun passes ->
          let prog = Lsra_workloads.Pressure.build machine shape in
          ignore
            (Lsra.Allocator.pipeline ~verify:true ~passes
               Lsra.Allocator.default_second_chance machine prog))
        [ []; Lsra.Passes.default ])
    Lsra_workloads.Pressure.[ twldrv; fpppp ]

let suite =
  [
    Alcotest.test_case "accepts a correct allocation" `Quick
      test_accepts_correct;
    Alcotest.test_case "rejects a wrong register" `Quick
      test_rejects_wrong_register;
    Alcotest.test_case "rejects a leftover temporary" `Quick
      test_rejects_leftover_temp;
    Alcotest.test_case "rejects a dropped spill store" `Quick
      test_rejects_dropped_spill_store;
    Alcotest.test_case "rejects a wrong-slot reload" `Quick
      test_rejects_swapped_resolution_moves;
    Alcotest.test_case "rejects caller-saved abuse across calls" `Quick
      test_rejects_clobbered_across_call;
    Alcotest.test_case "error reports name the site" `Quick
      test_error_message_mentions_site;
    Alcotest.test_case "error report for an instruction use" `Quick
      test_error_instruction_use;
    Alcotest.test_case "error report for a terminator use" `Quick
      test_error_terminator_use;
    Alcotest.test_case "error report for a terminator temporary" `Quick
      test_error_terminator_temp;
    Alcotest.test_case "error report for a resolution block" `Quick
      test_error_resolution_block;
    Alcotest.test_case "accepts a loop-carried spill meet" `Quick
      test_accepts_loop_carried_spill_meet;
    Alcotest.test_case "rejects a clobbered loop-carried slot" `Quick
      test_rejects_loop_carried_slot_clobber;
    Alcotest.test_case "all allocators verify on all workloads" `Slow
      test_all_allocators_verify_on_workloads;
    Alcotest.test_case "a changed operand count is a mismatch" `Quick
      test_operand_count_mismatch;
    Alcotest.test_case "sparse = dense reference on corpus and fixtures"
      `Slow test_equivalence_on_corpus_and_fixtures;
    Alcotest.test_case "twldrv and fpppp verify at small:7:7" `Slow
      test_large_functions_verify;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        equivalence_on_gen ~profile:"default" (fun seed ->
            {
              Lsra_workloads.Gen.default_params with
              Lsra_workloads.Gen.seed;
              n_temps = 6 + (seed mod 13);
              n_stmts = 8 + (seed mod 17);
              n_funcs = 1 + (seed mod 3);
            });
        equivalence_on_gen ~profile:"hostile" (fun seed ->
            Lsra_workloads.Gen.hostile_params ~seed);
      ]
