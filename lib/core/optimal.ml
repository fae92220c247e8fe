open Lsra_ir

(* Exact spill-cost minimisation by branch and bound (ROADMAP item 3).

   The decision space is whole-lifetime binpacking, the same model
   two-pass binpacking searches heuristically: every non-empty interval
   is either assigned one register for its entire lifetime (holes
   included, so two lifetimes can share a register through each other's
   holes) or spilled to memory, where each textual reference costs one
   spill instruction through a scratch register free at that position.
   Within this model the search is exact; the paper's intra-lifetime
   splitting (second-chance binpacking) falls outside it, which is why
   the incumbent is warm-started from the best heuristic rung — see
   [run_exact] below.

   Scratch feasibility is counting-based: point lifetimes occupy a single
   position, so a spill plan is realisable iff at every reference
   position the number of scratch claims does not exceed the registers of
   the class left free by conventions and whole-lifetime assignments.
   Registers at a single position are interchangeable, so per-position
   counting is exact, not an approximation. *)

type options = { node_budget : int; max_instrs : int }

let default_options = { node_budget = 60_000; max_instrs = 240 }

exception Budget_exceeded of string

(* Decision encoding per temp id. *)
let d_undecided = -2
let d_spill = -1

type ctx = {
  se : Spill_everywhere.t;
  npos : int;
  occ : Bytes.t array; (* per flat register: one byte per position *)
  decision : int array; (* per temp id: flat reg, d_spill or d_undecided *)
  spill_cost : int array; (* per temp id: textual loads + stores *)
  mutable nodes : int;
  budget : int;
}

(* Textual occurrence counts per temporary: exactly the loads and stores
   the rewrite will emit if the temp lives in memory. Counted off the
   instructions' operands (the ones [Spill_everywhere.rewrite] visits), not
   off the interval's reference list, so the cost model can never drift
   from the rewriter's accounting. *)
let count_occurrences func ntemps =
  let cost = Array.make ntemps 0 in
  let temp tp = cost.(Temp.id tp) <- cost.(Temp.id tp) + 1 and reg _ = () in
  Array.iter
    (fun b ->
      Array.iter
        (fun i ->
          Instr.iter_uses ~temp ~reg i;
          Instr.iter_defs ~temp ~reg i)
        (Block.body b);
      Block.iter_term_uses ~temp ~reg b)
    (Cfg.blocks (Func.cfg func));
  cost

let seg_free ctx ri s e =
  let occ = ctx.occ.(ri) in
  let ok = ref true in
  let p = ref s in
  while !ok && !p <= e do
    if Bytes.get occ !p <> '\000' then ok := false;
    incr p
  done;
  !ok

let seg_set ctx ri v s e =
  let occ = ctx.occ.(ri) in
  for p = s to e do
    Bytes.set occ p v
  done

(* Occupancy from the register conventions alone. *)
let reset_occupancy ctx =
  Array.iter (fun occ -> Bytes.fill occ 0 ctx.npos '\000') ctx.occ;
  for ri = 0 to Regidx.total ctx.se.regidx - 1 do
    Array.iter
      (fun { Interval.s; e } -> seg_set ctx ri '\001' s e)
      (Lifetime.reg_busy ctx.se.lifetimes ri)
  done

(* One register class's search. [claims]/[acover] are per-position counts
   of scratch claims and of whole-lifetime assignments; [avail] is the
   static count of class registers not convention-busy at each
   position. *)
let solve_class ctx cls =
  let lifetimes = ctx.se.lifetimes and func = ctx.se.func in
  let cand = Array.of_list (Regidx.of_cls ctx.se.regidx cls) in
  let k = Array.length cand in
  let ntemps = Array.length ctx.decision in
  let items =
    let ids = ref [] in
    for id = ntemps - 1 downto 0 do
      let itv = Lifetime.interval_of_id lifetimes id in
      if
        (not (Interval.is_empty itv))
        && Temp.cls (Interval.temp itv) = cls
      then ids := id :: !ids
    done;
    List.sort
      (fun a b ->
        let sa = Interval.start (Lifetime.interval_of_id lifetimes a)
        and sb = Interval.start (Lifetime.interval_of_id lifetimes b) in
        match Int.compare sa sb with 0 -> Int.compare a b | c -> c)
      !ids
    |> Array.of_list
  in
  let n = Array.length items in
  if n = 0 then 0
  else begin
    let itv_of i = Lifetime.interval_of_id lifetimes items.(i) in
    let avail = Array.make ctx.npos k in
    Array.iter
      (fun ri ->
        Array.iter
          (fun { Interval.s; e } ->
            for p = s to e do
              avail.(p) <- avail.(p) - 1
            done)
          (Lifetime.reg_busy lifetimes ri))
      cand;
    let claims = Array.make ctx.npos 0 in
    let acover = Array.make ctx.npos 0 in
    (* Distinct reference positions per item: one scratch claim each
       (duplicate operands at one position share a scratch). *)
    let claim_pos =
      Array.init n (fun i ->
          let itv = itv_of i in
          let out = ref [] in
          for r = Interval.n_refs itv - 1 downto 0 do
            let p = Interval.ref_pos_at itv r in
            match !out with
            | q :: _ when q = p -> ()
            | _ -> out := p :: !out
          done;
          Array.of_list !out)
    in
    (* A register with no convention segments and no current occupant is
       interchangeable with any other such register: trying one per node
       breaks the symmetry that would otherwise multiply the search by
       k!. *)
    let virgin_reg =
      Array.map
        (fun ri -> Array.length (Lifetime.reg_busy lifetimes ri) = 0)
        cand
    in
    let commits = Array.make k 0 in
    let itv_free i ri =
      let itv = itv_of i in
      let ok = ref true in
      let s = ref 0 in
      let nsegs = Interval.n_segs itv in
      while !ok && !s < nsegs do
        if not (seg_free ctx ri (Interval.seg_start itv !s) (Interval.seg_end itv !s))
        then ok := false;
        incr s
      done;
      !ok
    in
    (* Admissible per-item floor: an item some register could hold against
       conventions alone may cost 0; one that fits nowhere must spill
       entirely. Summed over the undecided suffix this is the pruning
       bound (occupancy only grows, so feasibility only shrinks). *)
    let min_cost =
      Array.init n (fun i ->
          let fits = ref false in
          Array.iter (fun ri -> if (not !fits) && itv_free i ri then fits := true) cand;
          if !fits then 0 else ctx.spill_cost.(items.(i)))
    in
    let suffix_lb = Array.make (n + 1) 0 in
    for i = n - 1 downto 0 do
      suffix_lb.(i) <- suffix_lb.(i + 1) + min_cost.(i)
    done;
    let best_cost = ref max_int in
    let best_dec = Array.make n d_undecided in
    let cur_dec = Array.make n d_undecided in
    (* Try to commit item [i]'s segments to flat register index [rj];
       checks occupancy and that existing scratch claims stay satisfiable
       under the shrunken free count. Returns false (no state change) on
       conflict. *)
    let try_assign i rj =
      let ri = cand.(rj) in
      if not (itv_free i ri) then false
      else begin
        let itv = itv_of i in
        let ok = ref true in
        let nsegs = Interval.n_segs itv in
        for s = 0 to nsegs - 1 do
          for p = Interval.seg_start itv s to Interval.seg_end itv s do
            if claims.(p) > avail.(p) - acover.(p) - 1 then ok := false
          done
        done;
        if not !ok then false
        else begin
          for s = 0 to nsegs - 1 do
            let ss = Interval.seg_start itv s and se = Interval.seg_end itv s in
            seg_set ctx ri '\001' ss se;
            for p = ss to se do
              acover.(p) <- acover.(p) + 1
            done
          done;
          commits.(rj) <- commits.(rj) + 1;
          true
        end
      end
    in
    let undo_assign i rj =
      let ri = cand.(rj) in
      let itv = itv_of i in
      for s = 0 to Interval.n_segs itv - 1 do
        let ss = Interval.seg_start itv s and se = Interval.seg_end itv s in
        seg_set ctx ri '\000' ss se;
        for p = ss to se do
          acover.(p) <- acover.(p) - 1
        done
      done;
      commits.(rj) <- commits.(rj) - 1
    in
    let try_spill i =
      let ps = claim_pos.(i) in
      let ok = ref true in
      Array.iter (fun p -> if claims.(p) + 1 > avail.(p) - acover.(p) then ok := false) ps;
      if not !ok then false
      else begin
        Array.iter (fun p -> claims.(p) <- claims.(p) + 1) ps;
        true
      end
    in
    let undo_spill i =
      Array.iter (fun p -> claims.(p) <- claims.(p) - 1) claim_pos.(i)
    in
    let rec dfs i cost =
      ctx.nodes <- ctx.nodes + 1;
      if ctx.nodes > ctx.budget then
        raise
          (Budget_exceeded
             (Printf.sprintf "node budget %d exhausted in %s" ctx.budget
                (Func.name func)));
      if cost + suffix_lb.(i) >= !best_cost then ()
      else if i = n then begin
        best_cost := cost;
        Array.blit cur_dec 0 best_dec 0 n
      end
      else begin
        let tried_virgin = ref false in
        for rj = 0 to k - 1 do
          let virgin = virgin_reg.(rj) && commits.(rj) = 0 in
          if (not virgin) || not !tried_virgin then begin
            if virgin then tried_virgin := true;
            if try_assign i rj then begin
              cur_dec.(i) <- cand.(rj);
              dfs (i + 1) cost;
              cur_dec.(i) <- d_undecided;
              undo_assign i rj
            end
          end
        done;
        if try_spill i then begin
          cur_dec.(i) <- d_spill;
          dfs (i + 1) (cost + ctx.spill_cost.(items.(i)));
          cur_dec.(i) <- d_undecided;
          undo_spill i
        end
      end
    in
    dfs 0 0;
    if !best_cost = max_int then
      raise
        (Budget_exceeded
           (Printf.sprintf "no feasible whole-lifetime plan for %s"
              (Func.name func)))
    else begin
      for i = 0 to n - 1 do
        ctx.decision.(items.(i)) <- best_dec.(i)
      done;
      !best_cost
    end
  end

(* Rewrite the function according to [ctx.decision]: assigned temps
   become their register everywhere; each reference of a spilled temp
   takes a scratch register, chosen greedily against the final occupancy
   and shared by the temp's references at one position. The search's
   counting argument guarantees one is free. *)
let emit_solution ctx =
  let se = ctx.se in
  let func = se.func and lifetimes = se.lifetimes in
  Trace.emit_fn se.trace func;
  (* Rebuild occupancy from conventions plus the winning assignments. *)
  reset_occupancy ctx;
  for id = 0 to Array.length ctx.decision - 1 do
    let ri = ctx.decision.(id) in
    if ri >= 0 then begin
      let itv = Lifetime.interval_of_id lifetimes id in
      for s = 0 to Interval.n_segs itv - 1 do
        seg_set ctx ri '\001' (Interval.seg_start itv s) (Interval.seg_end itv s)
      done;
      se.assignment.(id) <- Some (Regidx.to_reg se.regidx ri);
      Spill_everywhere.emit se
        (Trace.Assign
           {
             temp = Lifetime.temp_name lifetimes id;
             id;
             pos = Interval.start itv;
             reg = Regidx.to_reg se.regidx ri;
             reason = Trace.Exact;
             hole_end = max_int;
           })
    end
  done;
  let point_reg : (int * int, Mreg.t) Hashtbl.t = Hashtbl.create 16 in
  let scratch tp pos _ =
    let key = (Temp.id tp, pos) in
    match Hashtbl.find_opt point_reg key with
    | Some r -> r
    | None ->
      let rec find = function
        | [] ->
          (* The search's per-position counting argument guarantees a free
             register here; running out is a bug, not a budget matter. *)
          failwith
            (Printf.sprintf "optimal: no scratch register at %d in %s" pos
               (Func.name func))
        | ri :: rest ->
          if Bytes.get ctx.occ.(ri) pos = '\000' then begin
            Bytes.set ctx.occ.(ri) pos '\001';
            Regidx.to_reg se.regidx ri
          end
          else find rest
      in
      let r = find (Regidx.of_cls se.regidx (Temp.cls tp)) in
      Hashtbl.replace point_reg key r;
      r
  in
  Spill_everywhere.rewrite se ~scratch;
  se.stats

let run_exact opts trace liveness ~rungs ~failed machine func =
  if Func.n_instrs func > opts.max_instrs then
    raise
      (Budget_exceeded
         (Printf.sprintf "%s: %d instrs exceeds the size gate (%d)"
            (Func.name func) (Func.n_instrs func) opts.max_instrs));
  (* Each rung runs on a scratch copy to measure its true spill cost
     (resolution moves included), best-first on ties; the winner is
     re-run on the real function when the search cannot strictly beat
     it, so [Optimal]'s output is never worse than any rung — even where
     intra-lifetime splitting beats the whole-lifetime model. *)
  let incumbent =
    List.fold_left
      (fun best go ->
        match go None (Func.copy func) with
        | s -> (
          let c = Stats.total_spill s in
          match best with
          | Some (bc, _) when bc <= c -> best
          | _ -> Some (c, go))
        | exception e when failed e -> best)
      None rungs
  in
  let se = Spill_everywhere.create trace liveness machine func in
  let npos = Linear.n_positions (Lifetime.linear se.lifetimes) in
  let ntemps = Func.temp_bound func in
  let ctx =
    {
      se;
      npos;
      occ =
        Array.init (Regidx.total se.regidx) (fun _ -> Bytes.make npos '\000');
      decision = Array.make ntemps d_undecided;
      spill_cost = count_occurrences func ntemps;
      nodes = 0;
      budget = opts.node_budget;
    }
  in
  reset_occupancy ctx;
  let exact_cost =
    List.fold_left (fun acc cls -> acc + solve_class ctx cls) 0 Rclass.all
  in
  let stats =
    match incumbent with
    | Some (bc, go) when bc <= exact_cost ->
      (* The best rung is at least as good as the model optimum: adopt
         its output verbatim (its own trace section stands in for
         ours). *)
      go trace func
    | _ -> emit_solution ctx
  in
  stats.Stats.opt_nodes <- ctx.nodes;
  stats.Stats.opt_proven <- 1;
  stats
