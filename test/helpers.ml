open Lsra_ir
open Lsra_target

module B = Builder

let o_int = Operand.int
let o_temp = Operand.temp
let o_reg = Operand.reg

(* A call helper following the machine convention: move integer argument
   temps into argument registers, call, and receive the integer result in
   a temp. *)
let call_int b machine ~func ~args ~ret =
  let n = List.length args in
  let arg_regs = List.init n (Machine.arg_reg machine Rclass.Int) in
  List.iteri
    (fun i a -> B.move b (Loc.Reg (Machine.arg_reg machine Rclass.Int i)) a)
    args;
  let clobbers = Machine.all_caller_saved machine in
  B.call b ~func ~args:arg_regs
    ~rets:[ Machine.int_ret machine ]
    ~clobbers;
  match ret with
  | Some t -> B.movet b t (Operand.reg (Machine.int_ret machine))
  | None -> ()

(* Compare the reference execution of [prog] against the execution of its
   copy allocated by [alloc]; both observable output and the trap/ok
   status must agree. Returns the allocated run's outcome for further
   inspection. *)
let check_differential ?(input = "") ?(verify = true) ~name machine prog
    alloc =
  let reference = Lsra_sim.Interp.run machine prog ~input in
  let copy = Program.copy prog in
  List.iter
    (fun (n, f) ->
      let original = Func.copy f in
      alloc f;
      if verify then
        match Lsra.Verify.check machine ~original ~allocated:f with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "%s: verifier rejects %s: at '%s': %s" name n
            e.Lsra.Verify.where e.Lsra.Verify.what)
    (Program.funcs copy);
  (match
     List.concat_map (fun (_, f) -> List.map Temp.to_string (Func.temps f))
       (Program.funcs copy)
   with
  | [] -> ()
  | ts ->
    Alcotest.failf "%s: temporaries survive allocation: %s" name
      (String.concat ", " ts));
  let allocated = Lsra_sim.Interp.run machine copy ~input in
  match reference, allocated with
  | Ok r, Ok a ->
    Alcotest.(check string) (name ^ ": output") r.Lsra_sim.Interp.output
      a.Lsra_sim.Interp.output;
    Alcotest.(check string) (name ^ ": return value")
      (Lsra_sim.Value.to_string r.Lsra_sim.Interp.ret)
      (Lsra_sim.Value.to_string a.Lsra_sim.Interp.ret);
    a
  | Error e, _ -> Alcotest.failf "%s: reference run trapped: %s" name e
  | Ok _, Error e -> Alcotest.failf "%s: allocated run trapped: %s" name e

let second_chance ?(opts = Lsra.Binpack.default_options) machine f =
  ignore (Lsra.Allocator.run (Lsra.Allocator.Second_chance opts) machine f)

(* A small diamond-with-loop function exercising spills: sums several
   linear combinations over a counted loop. [width] controls register
   pressure. *)
let pressure_func ~width ~iters =
  let b = B.create ~name:"main" in
  let acc = B.temp b Rclass.Int ~name:"acc" in
  let i = B.temp b Rclass.Int ~name:"i" in
  let xs = List.init width (fun k -> B.temp b Rclass.Int ~name:(Printf.sprintf "x%d" k)) in
  B.start_block b "entry";
  B.li b acc 0;
  B.li b i 0;
  List.iteri (fun k x -> B.li b x (k + 1)) xs;
  B.start_block b "loop";
  (* Use every x, keeping them all live across the loop. *)
  List.iter (fun x -> B.bin b Instr.Add acc (o_temp acc) (o_temp x)) xs;
  List.iter
    (fun x -> B.bin b Instr.Add x (o_temp x) (o_int 1))
    xs;
  B.bin b Instr.Add i (o_temp i) (o_int 1);
  B.branch b Instr.Lt (o_temp i) (o_int iters) ~ifso:"loop" ~ifnot:"exit";
  B.start_block b "exit";
  B.move b (Loc.Reg (Machine.int_ret (Machine.small ()))) (o_temp acc);
  B.ret b;
  B.finish b

let prog_of_func f = Program.create ~main:(Func.name f) [ (Func.name f, f) ]

(* ---------------- reference analyses ---------------- *)

(* The operand lists as spelled out per constructor, the reference the
   allocation-free walks ([Instr.iter_uses], [Instr.iter_defs],
   [Block.iter_term_uses]) must visit in order. *)
let operand_locs (o : Operand.t) =
  match o with Operand.Loc l -> [ l ] | Operand.Int _ | Operand.Float _ -> []

let ref_uses i : Loc.t list =
  match Instr.desc i with
  | Instr.Move { src; _ } | Instr.Un { src; _ } -> operand_locs src
  | Instr.Bin { a; b; _ } | Instr.Cmp { a; b; _ } ->
    operand_locs a @ operand_locs b
  | Instr.Load { base; _ } -> operand_locs base
  | Instr.Store { src; base; _ } -> operand_locs src @ operand_locs base
  | Instr.Spill_load _ | Instr.Nop -> []
  | Instr.Spill_store { src; _ } -> [ src ]
  | Instr.Call { args; _ } -> List.map Loc.reg args

let ref_defs i : Loc.t list =
  match Instr.desc i with
  | Instr.Move { dst; _ }
  | Instr.Bin { dst; _ }
  | Instr.Un { dst; _ }
  | Instr.Cmp { dst; _ }
  | Instr.Load { dst; _ }
  | Instr.Spill_load { dst; _ } ->
    [ dst ]
  | Instr.Store _ | Instr.Spill_store _ | Instr.Nop -> []
  | Instr.Call { clobbers; _ } -> List.map Loc.reg clobbers

let ref_term_uses b : Loc.t list =
  match Block.term b with
  | Block.Jump _ | Block.Ret -> []
  | Block.Branch { a; b; _ } -> operand_locs a @ operand_locs b

(* What a walk visits, as a list in visiting order. *)
let walked iter x : Loc.t list =
  let acc = ref [] in
  iter
    ~temp:(fun t -> acc := Loc.Temp t :: !acc)
    ~reg:(fun r -> acc := Loc.Reg r :: !acc)
    x;
  List.rev !acc

(* The list forms of the operand walks, in visiting order. *)
let uses i = Loc.collect Instr.iter_uses i
let defs i = Loc.collect Instr.iter_defs i
let term_uses b = Loc.collect Block.iter_term_uses b

(* The DCE every round of which solves liveness afresh: the reference
   [Dce.run_to_fixpoint] must match instruction for instruction and in
   its count. *)
let dce_round_by_round func =
  let module L = Lsra_analysis.Liveness in
  let module S = Lsra_analysis.Bitset in
  let temp_ids f locs =
    List.iter
      (fun l -> match Loc.as_temp l with Some t -> f (Temp.id t) | None -> ())
      locs
  in
  let side_effect i =
    match Instr.desc i with
    | Instr.Store _ | Instr.Spill_store _ | Instr.Call _ -> true
    | _ -> false
  in
  let round () =
    let liveness = L.compute func in
    let removed = ref 0 in
    Array.iteri
      (fun bi b ->
        let live = S.copy (L.live_out liveness bi) in
        temp_ids (S.add live) (term_uses b);
        let keep = ref [] in
        let body = Block.body b in
        for k = Array.length body - 1 downto 0 do
          let i = body.(k) in
          let defs = defs i in
          let keeps_live =
            List.exists
              (fun l ->
                match Loc.as_temp l with
                | Some t -> S.mem live (Temp.id t)
                | None -> true)
              defs
          in
          if (not (side_effect i)) && defs <> [] && not keeps_live then
            incr removed
          else begin
            keep := i :: !keep;
            temp_ids (S.remove live) defs;
            temp_ids (S.add live) (uses i)
          end
        done;
        Block.set_body b (Array.of_list !keep))
      (Cfg.blocks (Func.cfg func));
    !removed
  in
  let rec go total =
    let r = round () in
    if r > 0 then go (total + r) else total
  in
  go 0

(* The CFG's edges as integer tables built afresh from the labels, the
   reference for [Cfg.edge_tables]: successors in [Block.succ_labels]
   order, predecessors in [Cfg.preds_table] order. *)
let edges_by_labels cfg =
  let idx = Cfg.block_index cfg in
  let preds = Cfg.preds_table cfg in
  Array.map
    (fun b ->
      ( Array.of_list (List.map idx (Block.succ_labels b)),
        Array.of_list (List.map idx (Hashtbl.find preds (Block.label b))) ))
    (Cfg.blocks cfg)

(* Immediate dominators over the label-keyed predecessor table, the
   reference for [Dom]: [idom.(i)] is -1 for an unreachable block and [i]
   for the entry. *)
let idoms_by_labels cfg =
  let n = Cfg.n_blocks cfg in
  let blocks = Cfg.blocks cfg in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter
        (fun l -> dfs (Cfg.block_index cfg l))
        (Block.succ_labels blocks.(i));
      order := i :: !order
    end
  in
  let entry = Cfg.block_index cfg (Cfg.entry cfg) in
  dfs entry;
  let rpo = Array.make n (-1) in
  List.iteri (fun pos i -> rpo.(i) <- pos) !order;
  let preds = Cfg.preds_table cfg in
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo.(!a) > rpo.(!b) do
        a := idom.(!a)
      done;
      while rpo.(!b) > rpo.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        if i <> entry then
          match
            Hashtbl.find preds (Block.label blocks.(i))
            |> List.map (Cfg.block_index cfg)
            |> List.filter (fun p -> idom.(p) <> -1)
          with
          | [] -> ()
          | first :: rest ->
            let d = List.fold_left intersect first rest in
            if idom.(i) <> d then begin
              idom.(i) <- d;
              changed := true
            end)
      !order
  done;
  idom

(* Natural-loop depths and the sorted header list over the label-keyed
   predecessor table, the reference for [Loop]. *)
let loops_by_labels cfg =
  let n = Cfg.n_blocks cfg in
  let blocks = Cfg.blocks cfg in
  let idom = idoms_by_labels cfg in
  let entry = Cfg.block_index cfg (Cfg.entry cfg) in
  let dominates a b =
    idom.(a) <> -1 && idom.(b) <> -1
    &&
    let rec walk x = x = a || (x <> entry && walk idom.(x)) in
    walk b
  in
  let preds = Cfg.preds_table cfg in
  let loops = Hashtbl.create 8 in
  Array.iteri
    (fun i b ->
      if idom.(i) <> -1 then
        List.iter
          (fun s ->
            let h = Cfg.block_index cfg s in
            if dominates h i then begin
              let body =
                match Hashtbl.find_opt loops h with
                | Some s -> s
                | None ->
                  let s = Array.make n false in
                  s.(h) <- true;
                  Hashtbl.add loops h s;
                  s
              in
              let rec back j =
                if not body.(j) then begin
                  body.(j) <- true;
                  List.iter
                    (fun p -> back (Cfg.block_index cfg p))
                    (Hashtbl.find preds (Block.label blocks.(j)))
                end
              in
              back i
            end)
          (Block.succ_labels b))
    blocks;
  let depth = Array.make n 0 in
  Hashtbl.iter
    (fun _ body ->
      Array.iteri (fun j m -> if m then depth.(j) <- depth.(j) + 1) body)
    loops;
  (depth, List.sort compare (List.of_seq (Hashtbl.to_seq_keys loops)))

(* The scan's former binary searches over a register's busy segments,
   kept as the reference for [Binpack.Busy_cursor]: whether a segment
   covers [pos], the start of the first segment after [pos] ([max_int]
   if none), and both in one answer ([min_int] when covered, else the
   hole end: next start minus one, [max_int - 1] if none). *)
let seg_covering (segs : Lsra.Interval.seg array) pos =
  let lo = ref 0 and hi = ref (Array.length segs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Lsra.Interval.e < pos then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length segs && segs.(!lo).Lsra.Interval.s <= pos

let next_start_after (segs : Lsra.Interval.seg array) pos =
  let lo = ref 0 and hi = ref (Array.length segs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Lsra.Interval.s <= pos then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length segs then segs.(!lo).Lsra.Interval.s else max_int

let hole_end_if_free (segs : Lsra.Interval.seg array) pos =
  let len = Array.length segs in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Lsra.Interval.e < pos then lo := mid + 1 else hi := mid
  done;
  if !lo < len then
    if segs.(!lo).Lsra.Interval.s <= pos then min_int
    else segs.(!lo).Lsra.Interval.s - 1
  else max_int - 1
