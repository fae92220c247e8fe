open Lsra_ir
open Lsra_analysis

let resolve_instr kind desc =
  Instr.make ~tag:(Instr.Spill { phase = Instr.Resolve; kind }) desc

(* A ranked-walk callback for edge [p → s]: [f id lp ls] with the temp's
   location at the bottom of [p] and at the top of [s] (-1 is memory,
   otherwise a flat register). live_in [s] is within live_out [p]. *)
let at_edge (res : Binpack.t) p s f id ts bs =
  f id
    res.bottom_loc.(res.bottom_off.(p) + bs)
    res.top_loc.(res.top_off.(s) + ts)

(* Pass 1's candidates on edge [p → s], in id order: the temps live into
   [s] that the change log holds between the scan's bottom record of [p]
   ([change_off.(p + 1)]) and its top record of [s] ([change_off.(s)]).
   The slice lies after the bottom record on a forward edge, before it on
   a back edge or a self-loop, and is empty on a fallthrough edge. [mask]
   is clear scratch and is left clear. *)
let iter_edge (res : Binpack.t) log mask p s f =
  let a = res.change_off.(p + 1) and b = res.change_off.(s) in
  if a <> b then begin
    let lo = min a b and hi = max a b in
    for k = lo to hi - 1 do Bitset.add mask log.(k) done;
    Bitset.iter_ranked (at_edge res p s f) mask
      ~within:(Liveness.live_in res.liveness s)
      ~also:(Liveness.live_out res.liveness p);
    for k = lo to hi - 1 do Bitset.remove mask log.(k) done
  end

(* [f e p s] for the edges of [succs] in [Cfg.edge_tables] order (by
   source block, then {!Block.succ_labels} order), [e] counting. *)
let iter_edges succs f =
  let e = ref 0 in
  Array.iteri (fun p -> Array.iter (fun s -> f !e p s; incr e)) succs

let iter_candidates (res : Binpack.t) f =
  let log = Binpack.change_log res in
  let mask = Bitset.create (Liveness.width res.liveness) in
  iter_edges (Cfg.edge_tables (Func.cfg res.func)).Cfg.succs (fun _ p s ->
      iter_edge res log mask p s (fun id _ _ -> f p s id))

let run (res : Binpack.t) =
  let trace = res.Binpack.trace in
  let tr ev = match trace with None -> () | Some t -> Trace.emit t ev in
  let func = res.Binpack.func in
  let cfg = Func.cfg func in
  let stats = res.Binpack.stats in
  let ridx = res.Binpack.regidx in
  let liveness = res.Binpack.liveness in
  let ntemps = Liveness.width liveness in
  (* Read before edge splitting appends blocks. *)
  let blocks = Cfg.blocks cfg in
  let label i = Block.label blocks.(i) in
  let { Cfg.succs; preds } = Cfg.edge_tables cfg in
  let lifetimes = res.Binpack.lifetimes in
  let tname id = if trace = None then "" else Lifetime.temp_name lifetimes id in
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
  (* Pass 1's repairs, four ints each: edge, dst, src, temp. A store has
     dst -1 and its register as src; a write (a move or a load) has its
     register as dst and a register or [-1 - slot] as src. *)
  let ops = res.Binpack.ws.Workspace.edge_ops in
  let a i = ops.Workspace.a.(i) in
  (* The first register of class [cls] that no boundary location of edge
     [p → s] holds, free to be scratch on it; -1 when there is none. *)
  let scratch_for p s cls =
    let holds locs off b r =
      let k = ref off.(b) in
      while !k < off.(b + 1) && locs.(!k) <> r do incr k done;
      !k < off.(b + 1)
    in
    let lo, hi = Regidx.cls_range ridx cls in
    let rec free r =
      if r >= hi then -1
      else if holds res.bottom_loc res.bottom_off p r then free (r + 1)
      else if holds res.top_loc res.top_off s r then free (r + 1)
      else r
    in
    free lo
  in
  (* Sequentialise one edge's parallel writes onto [out] (reversed), [pend]
     holding their [ops] positions in pending order. Destinations are
     distinct and each register is the source of at most one write
     (bottom locations are injective over live temps), so blocked writes
     form register cycles, broken through a register free across the edge
     or else the temp's spill slot. Each round emits, in pending order,
     every write whose destination no pending write reads: [readers]
     counts the reads, released when the round ends. *)
  let readers = Array.make (Regidx.total ridx) 0 in
  let read r d = if r >= 0 then readers.(r) <- readers.(r) + d in
  let sequentialize p s pend out =
    let np = ref (Array.length pend) in
    Array.iter (fun j -> read (a (j + 2)) 1) pend;
    while !np > 0 do
      let m = ref 0 and freed = ref [] in
      for q = 0 to !np - 1 do
        let j = pend.(q) in
        let id = a (j + 3) and dst = a (j + 1) and r = a (j + 2) in
        if readers.(dst) > 0 then begin pend.(!m) <- j; incr m end
        else if r >= 0 then begin
          freed := r :: !freed;
          out := move ~cycle:false id dst r :: !out
        end
        else out := load id dst (-1 - r) :: !out
      done;
      List.iter (fun r -> read r (-1)) !freed;
      if !m = !np then begin
        (* Pure cycle(s) of register moves. Detach the first. *)
        let id = a (pend.(0) + 3) and v = a (pend.(0) + 2) in
        assert (v >= 0);
        let v' = scratch_for p s (Mreg.cls (reg v)) in
        if v' >= 0 then out := move ~cycle:true id v' v :: !out
        else out := store ~cycle:true id v :: !out;
        let v' = if v' >= 0 then v' else -1 - get_slot id in
        for q = 0 to !np - 1 do
          if a (pend.(q) + 2) = v then begin
            ops.a.(pend.(q) + 2) <- v';
            read v (-1);
            read v' 1
          end
        done
      end;
      np := !m
    done
  in
  let a_bit p id = Bitset.mem res.Binpack.are_consistent.(p) id in
  let used_c = res.Binpack.used_consistency in

  (* Pass 1: location-mismatch repairs of edge [!pe] ([!pp] → s), over its
     candidates: no other temp's location can differ across it. A store
     suppressed because register and memory were consistent at the bottom
     of [p] relies on consistency on every path into [p] unless [p] itself
     (re-)established it, so it joins [p]'s USED_CONSISTENCY. *)
  Workspace.buf_clear ops;
  let log = Binpack.change_log res and mask = Bitset.create ntemps in
  let pairs = ref 0 and pe = ref 0 and pp = ref 0 in
  let push = Workspace.buf_push ops in
  let op dst src id = push !pe; push dst; push src; push id in
  let compare id lp ls =
    let p = !pp in
    incr pairs;
    if lp >= 0 && ls < 0 then begin
      if not (a_bit p id) then op (-1) lp id
      else if not (Bitset.mem res.Binpack.wrote_tr.(p) id) then
        Bitset.add used_c.(p) id
    end
    else if lp < 0 && ls >= 0 then op ls (-1 - get_slot id) id
    else if lp <> ls then op ls lp id
  in
  iter_edges succs (fun e p s ->
      pe := e; pp := p; iter_edge res log mask p s compare);
  stats.Stats.resolve_pairs <- stats.Stats.resolve_pairs + !pairs;

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

  (* Per edge: pass 2, then sequentialise and place. Pass 2 adds the
     consistency stores an edge needs when its successor (or deeper) relies
     on register/memory agreement the predecessor does not provide, for
     temps register-resident across it (pass 1 repaired the mismatches).
     Stores come first, pass 2's then pass 1's, then the writes, each in
     decreasing id order (the writes' pending order). *)
  let k = ref 0 and stores = ref [] and writes = ref [] in
  iter_edges succs (fun e p s ->
      stores := []; writes := [];
      while !k < ops.n && a !k = e do
        if a (!k + 1) < 0 then stores := (a (!k + 2), a (!k + 3)) :: !stores
        else writes := !k :: !writes;
        k := !k + 4
      done;
      (match used_c_in with
      | Some inv when not (Bitset.is_empty inv.(s)) ->
        Bitset.iter_ranked
          (at_edge res p s (fun id lp ls ->
               if (not (a_bit p id)) && lp >= 0 && ls >= 0 then
                 stores := (lp, id) :: !stores))
          inv.(s) ~within:(Liveness.live_in liveness s)
          ~also:(Liveness.live_out liveness p)
      | Some _ | None -> ());
      if !stores <> [] || !writes <> [] then begin
        tr (Trace.Edge { src = label p; dst = label s });
        let out = ref [] in
        List.iter (fun (r, t) -> out := store ~cycle:false t r :: !out) !stores;
        sequentialize p s (Array.of_list !writes) out;
        let instrs = Array.of_list (List.rev !out) in
        (* Placement (paper §2.4 footnote): top of a single-predecessor
           successor, else bottom of a single-successor predecessor ending
           in an unconditional jump, else split the edge. *)
        let s_block = blocks.(s) and p_block = blocks.(p) in
        if Array.length preds.(s) = 1 then
          Block.set_body s_block (Array.append instrs (Block.body s_block))
        else begin
          match Block.term p_block with
          | Block.Jump _ ->
            Block.set_body p_block (Array.append (Block.body p_block) instrs)
          | Block.Branch _ | Block.Ret ->
            let l = Func.fresh_label ~hint:"resolve" func in
            Cfg.append_block cfg
              (Block.make ~label:l ~body:instrs ~term:(Block.Jump (label s)));
            Block.retarget_term p_block ~from:(label s) ~to_:l
        end
      end);
  stats.Stats.slots <- Func.n_slots func
