open Lsra_ir
open Lsra_analysis

(* A pending parallel write on an edge: register [dst] receives the value
   of temp [temp_id], either from register [`Reg r] (a move) or from its
   spill slot [`Slot s] (a load). Registers are {!Regidx} flat indices. *)
type wop = { dst : int; src : [ `Reg of int | `Slot of int ]; temp_id : int }

let resolve_instr kind desc =
  Instr.make ~tag:(Instr.Spill { phase = Instr.Resolve; kind }) desc

let run (res : Binpack.t) =
  let trace = res.Binpack.trace in
  let tr ev = match trace with None -> () | Some t -> Trace.emit t ev in
  let func = res.Binpack.func in
  let cfg = Func.cfg func in
  let stats = res.Binpack.stats in
  let ridx = res.Binpack.regidx in
  let liveness = res.Binpack.liveness in
  let ntemps = Liveness.width liveness in
  (* The CFG's edges as index pairs in [Cfg.edges] order, read off its
     integer tables before edge splitting appends blocks. *)
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let label i = Block.label blocks.(i) in
  let live_in = Liveness.live_in liveness in
  let live_out = Liveness.live_out liveness in
  let { Cfg.succs; preds } = Cfg.edge_tables cfg in
  let edges =
    List.concat
      (List.init nb (fun p ->
           Array.fold_right (fun s acc -> (p, s) :: acc) succs.(p) []))
  in
  let lifetimes = res.Binpack.lifetimes in
  let tname id = Lifetime.temp_name lifetimes id in
  let get_slot id = Binpack.slot trace func lifetimes res.Binpack.slot_of id in
  let reg = Regidx.to_reg ridx and loc = Regidx.to_loc ridx in
  (* Repair instructions, counted and traced as they are made. *)
  let move ~cycle id dst src =
    stats.Stats.resolve_moves <- stats.Stats.resolve_moves + 1;
    tr
      (Trace.Resolve_move
         { temp = tname id; id; dst = reg dst; src = reg src; cycle });
    resolve_instr Instr.Spill_mv
      (Instr.Move { dst = loc dst; src = Operand.Loc (loc src) })
  in
  let load id r slot =
    stats.Stats.resolve_loads <- stats.Stats.resolve_loads + 1;
    tr (Trace.Resolve_load { temp = tname id; id; reg = reg r; slot });
    resolve_instr Instr.Spill_ld (Instr.Spill_load { dst = loc r; slot })
  in
  let store ~cycle id r =
    let slot = get_slot id in
    stats.Stats.resolve_stores <- stats.Stats.resolve_stores + 1;
    tr (Trace.Resolve_store { temp = tname id; id; reg = reg r; slot; cycle });
    resolve_instr Instr.Spill_st (Instr.Spill_store { src = loc r; slot })
  in
  (* Sequentialise the parallel writes of one edge. Destinations are
     distinct, and each register is the source of at most one op (bottom
     locations are injective over live temps), so blocked configurations
     are pure register cycles; we break them with a scratch register when
     one is free across the edge, falling back to the temp's spill slot. *)
  let sequentialize ~scratch_for ops =
    let out = ref [] and pending = ref ops in
    while !pending <> [] do
      let blockers =
        List.filter_map
          (fun w -> match w.src with `Reg r -> Some r | `Slot _ -> None)
          !pending
      in
      match
        List.partition
          (fun w -> not (List.mem w.dst blockers))
          !pending
      with
      | (_ :: _ as ready), stuck ->
        List.iter
          (fun w ->
            out :=
              (match w.src with
              | `Reg r -> move ~cycle:false w.temp_id w.dst r
              | `Slot s -> load w.temp_id w.dst s)
              :: !out)
          ready;
        pending := stuck
      | [], { src = `Reg v; temp_id; _ } :: _ ->
        (* Pure cycle(s) of register moves. Detach the first. *)
        let i, src =
          match scratch_for (Mreg.cls (reg v)) with
          | Some scratch -> (move ~cycle:true temp_id scratch v, `Reg scratch)
          | None -> (store ~cycle:true temp_id v, `Slot (get_slot temp_id))
        in
        out := i :: !out;
        pending :=
          List.map
            (fun w ->
              match w.src with
              | `Reg r when r = v -> { w with src }
              | `Reg _ | `Slot _ -> w)
            !pending
      | [], _ -> assert false
    done;
    List.rev !out
  in
  (* The scan's locations across one edge, by temp id: [bot] at the bottom
     of the predecessor, [top] at the top of the successor; -1 is memory,
     otherwise a flat register index. Loaded from the scan's boundary
     ranges; live_in of the successor is within live_out of the
     predecessor, so every temp live across the edge has both. *)
  let bot = Array.make ntemps (-1) and top = Array.make ntemps (-1) in
  let { Binpack.top_loc; top_off; bottom_loc; bottom_off; _ } = res in
  let load dst locs off live =
    let k = ref off in
    Bitset.iter (fun id -> dst.(id) <- locs.(!k); incr k) live
  in
  let load_edge p s =
    load bot bottom_loc bottom_off.(p) (live_out p);
    load top top_loc top_off.(s) (live_in s)
  in
  let a_bit p id = Bitset.mem res.Binpack.are_consistent.(p) id in
  let used_c = res.Binpack.used_consistency in

  (* Pass 1: location-mismatch repairs. Suppressing a store because the
     register and memory were consistent at the bottom of [p] relies on
     consistency holding on every path into [p] whenever it was not
     (re-)established inside [p] itself, so such suppressions feed the
     same dataflow as in-scan ones: they join [p]'s USED_CONSISTENCY. *)
  let base_ops =
    List.map
      (fun (p, s) ->
        load_edge p s;
        let stores = ref [] and writes = ref [] in
        Bitset.iter
          (fun id ->
            let lp = bot.(id) and ls = top.(id) in
            if lp >= 0 && ls < 0 then begin
              if not (a_bit p id) then stores := (lp, id) :: !stores
              else if not (Bitset.mem res.Binpack.wrote_tr.(p) id) then
                Bitset.add used_c.(p) id
            end
            else if lp < 0 && ls >= 0 then
              writes :=
                { dst = ls; src = `Slot (get_slot id); temp_id = id } :: !writes
            else if lp <> ls then
              writes := { dst = ls; src = `Reg lp; temp_id = id } :: !writes)
          (live_in s);
        (!stores, !writes))
      edges
  in

  (* Consistency dataflow (paper §2.4): USED_C_in/out over the
     USED_CONSISTENCY gen and WROTE_TR kill sets. The meet is union and
     the kill sets only remove bits, so when every gen set is empty the
     least fixed point is empty: the solve is skipped, reporting 0
     rounds. *)
  let used_c_in =
    match res.Binpack.opts.Binpack.consistency with
    | Binpack.Conservative -> None
    | Binpack.Iterative when Array.for_all Bitset.is_empty used_c -> None
    | Binpack.Iterative ->
      let rounds = ref 0 in
      let r =
        Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
          ~width:ntemps ~gen:(Array.get used_c)
          ~kill:(Array.get res.Binpack.wrote_tr) ~rounds ()
      in
      stats.Stats.dataflow_rounds <- !rounds;
      Some r.Dataflow.in_of
  in

  (* Per edge: pass 2, then sequentialise and place. Pass 2 adds
     consistency-repair stores on edges whose successor (or deeper) relies
     on register/memory agreement the predecessor does not provide. Only
     needed when the temp stays register-resident across the edge; the
     mismatch cases established consistency in pass 1. *)
  let used_regs = Array.make (Regidx.total ridx) false in
  List.iter2
    (fun (p, s) (stores, writes) ->
      let stores =
        match used_c_in with
        | Some inv when not (Bitset.is_empty inv.(s)) ->
          load_edge p s;
          let stores = ref stores in
          Bitset.iter
            (fun id ->
              if
                Bitset.mem (live_in s) id
                && (not (a_bit p id))
                && bot.(id) >= 0 && top.(id) >= 0
              then stores := (bot.(id), id) :: !stores)
            inv.(s);
          !stores
        | Some _ | None -> stores
      in
      if stores <> [] || writes <> [] then begin
        tr (Trace.Edge { src = label p; dst = label s });
        let store_instrs =
          List.map (fun (rp, id) -> store ~cycle:false id rp) stores
        in
        (* Registers holding live values across this edge must not be used
           as scratch: every register of the two boundary ranges. *)
        Array.fill used_regs 0 (Array.length used_regs) false;
        let mark locs lo hi =
          for k = lo to hi - 1 do
            if locs.(k) >= 0 then used_regs.(locs.(k)) <- true
          done
        in
        mark bottom_loc bottom_off.(p) bottom_off.(p + 1);
        mark top_loc top_off.(s) top_off.(s + 1);
        let scratch_for cls =
          let lo, hi = Regidx.cls_range ridx cls in
          let rec free i =
            if i >= hi then None
            else if used_regs.(i) then free (i + 1)
            else Some i
          in
          free lo
        in
        let instrs = store_instrs @ sequentialize ~scratch_for writes in
        (* Placement (paper §2.4 footnote): top of a single-predecessor
           successor, else bottom of a single-successor predecessor ending
           in an unconditional jump, else split the edge. *)
        let s_block = blocks.(s) and p_block = blocks.(p) in
        if Array.length preds.(s) = 1 then
          Block.set_body s_block
            (Array.append (Array.of_list instrs) (Block.body s_block))
        else begin
          match Block.term p_block with
          | Block.Jump _ ->
            Block.set_body p_block
              (Array.append (Block.body p_block) (Array.of_list instrs))
          | Block.Branch _ | Block.Ret ->
            let l = Func.fresh_label ~hint:"resolve" func in
            Cfg.append_block cfg
              (Block.make ~label:l ~body:(Array.of_list instrs)
                 ~term:(Block.Jump (label s)));
            Block.retarget_term p_block ~from:(label s) ~to_:l
        end
      end)
    edges base_ops;
  stats.Stats.slots <- Func.n_slots func
