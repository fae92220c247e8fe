open Lsra_ir
open Lsra_analysis
open Lsra_target

type rloc = In_reg of Mreg.t | In_mem

type consistency_mode = Iterative | Conservative

type options = {
  early_second_chance : bool;
  move_opt : bool;
  consistency : consistency_mode;
}

let default_options =
  { early_second_chance = true; move_opt = true; consistency = Iterative }

type t = {
  func : Func.t;
  regidx : Regidx.t;
  liveness : Liveness.t;
  lifetimes : Lifetime.t;
  top_loc : int array array;
  bottom_loc : int array array;
  are_consistent : Bitset.t array;
  used_consistency : Bitset.t array;
  wrote_tr : Bitset.t array;
  slot_of : int array;
  stats : Stats.t;
  opts : options;
  trace : Trace.t option;
}

exception Out_of_registers of string

(* Segment-array queries for register busy intervals. *)
let seg_covering (segs : Interval.seg array) pos =
  let lo = ref 0 and hi = ref (Array.length segs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Interval.e < pos then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length segs && segs.(!lo).Interval.s <= pos

let next_start_after (segs : Interval.seg array) pos =
  let lo = ref 0 and hi = ref (Array.length segs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Interval.s <= pos then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length segs then segs.(!lo).Interval.s else max_int

(* Both queries in one binary search: [min_int] when [pos] is inside a
   busy segment, otherwise the end of the availability hole at [pos]
   ([max_int - 1] when no busy segment follows, matching
   [next_start_after pos - 1]). *)
let hole_end_if_free (segs : Interval.seg array) pos =
  let len = Array.length segs in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if segs.(mid).Interval.e < pos then lo := mid + 1 else hi := mid
  done;
  if !lo < len then
    if segs.(!lo).Interval.s <= pos then min_int
    else segs.(!lo).Interval.s - 1
  else max_int - 1

type state = {
  res : t;
  machine : Machine.t;
  loc : rloc option array; (* per temp id *)
  consistent : bool array; (* per temp id: the working ARE_CONSISTENT bit *)
  cursor : int array; (* per temp id: next-reference cursor *)
  occ_temp : int array; (* per flat reg: occupant temp id, or -1 *)
  occ_next_busy : int array; (* per flat reg: next convention event *)
  occ_stop : int array;
  (* per flat reg: occupant's lifetime stop (max_int when the occupant's
     interval is empty), so the per-instruction death sweeps compare ints
     instead of chasing the interval *)
  mutable sweep_at : int;
  (* lower bound on the earliest occupied register's next convention
     event: [convention_sweep] is a no-op strictly before it *)
  mutable dead_at : int;
  (* lower bound on the earliest occupant death: [release_dead] is a
     no-op strictly before it *)
  he_scratch : int array;
  (* per flat reg, valid only within one [assign_reg] call: hole end at
     the current position, [min_int] for ineligible registers *)
  mutable emit_rev : Instr.t list; (* current block, reversed *)
  mutable cur_w : Bitset.t; (* WROTE_TR of the current block *)
  mutable cur_u : Bitset.t; (* USED_CONSISTENCY of the current block *)
  tr : Trace.t option; (* decision-trace sink, [None] in production *)
  started : bool array; (* per temp id: Start event already emitted *)
  mutable bound : int list;
  (* flat registers the current instruction reads or writes so far *)
  mutable src_reg : int;
  (* flat register of the current instruction's last use, -1 if none *)
  use_reg : int array;
  (* per temp id: flat register its use at the current instruction was
     resolved to *)
}

let emit st i = st.emit_rev <- i :: st.emit_rev

let interval st id = Lifetime.interval_of_id st.res.lifetimes id

let temp_of st id = Interval.temp (interval st id)

let tname st id = Lifetime.temp_name st.res.lifetimes id

let slot trace func lifetimes slot_of id =
  if slot_of.(id) < 0 then begin
    let s = Func.fresh_slot func in
    slot_of.(id) <- s;
    match trace with
    | None -> ()
    | Some t ->
      Trace.emit t
        (Slot_alloc { temp = Lifetime.temp_name lifetimes id; id; slot = s })
  end;
  slot_of.(id)

let get_slot st id = slot st.tr st.res.func st.res.lifetimes st.res.slot_of id

(* First allocation decision for [id] in this scan. *)
let mark_start st id ~pos =
  match st.tr with
  | None -> ()
  | Some t ->
    if not st.started.(id) then begin
      st.started.(id) <- true;
      Trace.emit t (Start { temp = tname st id; id; pos })
    end

(* Move temp [id]'s reference cursor to its first reference at or after
   [pos]. *)
let advance_cursor st id ~pos =
  st.cursor.(id) <-
    Interval.next_ref_at (interval st id) ~cursor:st.cursor.(id) ~pos

(* Eviction-priority benefit of keeping temp [id] in its register: next
   reference's loop-depth weight over its distance (paper §2.3). Lower is
   evicted first. Loop depths are tiny, so the power is a table lookup. *)
let pow10 = Array.init 32 (fun d -> 10.0 ** float_of_int d)

let benefit st id ~pos =
  (* Index-based: runs inside the eviction scans, so it must not build
     a [ref_point] record. *)
  let itv = interval st id in
  let c = Interval.next_ref_at itv ~cursor:st.cursor.(id) ~pos in
  st.cursor.(id) <- c;
  if c >= Interval.n_refs itv then -1.0
  else
    let dist = float_of_int (Interval.ref_pos_at itv c - pos + 1) in
    let d = Interval.ref_depth_at itv c in
    let w = if d < 32 then pow10.(d) else 10.0 ** float_of_int d in
    w /. dist

let reg_of_flat st ri = Regidx.to_reg st.res.regidx ri
let flat_of_reg st r = Regidx.of_reg st.res.regidx r

(* The scan's location of every temp of [live], in [Bitset.iter] order:
   the flat register index, or -1 for memory. Never-seen temps are placed
   in memory. *)
let boundary_locs st live =
  let a = Array.make (Bitset.cardinal live) (-1) in
  let k = ref 0 in
  Bitset.iter
    (fun id ->
      (match st.loc.(id) with
      | Some (In_reg r) -> a.(!k) <- flat_of_reg st r
      | Some In_mem -> ()
      | None -> st.loc.(id) <- Some In_mem);
      incr k)
    live;
  a

let set_occupant st ri id ~pos =
  st.occ_temp.(ri) <- id;
  st.occ_next_busy.(ri) <-
    next_start_after (Lifetime.reg_busy st.res.lifetimes ri) pos;
  (let itv = interval st id in
   st.occ_stop.(ri) <-
     (if Interval.is_empty itv then max_int else Interval.stop itv));
  (* Occupant removal leaves the bounds stale-low, which is safe: the
     sweep runs once for nothing and tightens them. *)
  if st.occ_next_busy.(ri) < st.sweep_at then st.sweep_at <- st.occ_next_busy.(ri);
  if st.occ_stop.(ri) < st.dead_at then st.dead_at <- st.occ_stop.(ri);
  st.loc.(id) <- Some (In_reg (reg_of_flat st ri))

let clear_occupant st ri =
  let id = st.occ_temp.(ri) in
  if id >= 0 then begin
    st.occ_temp.(ri) <- -1;
    st.loc.(id) <- Some In_mem
  end

(* Next reference of [id] at or after [pos] without moving the cursor;
   only evaluated on the traced path. *)
let peek_next_ref st id ~pos =
  let itv = interval st id in
  let c = Interval.next_ref_at itv ~cursor:st.cursor.(id) ~pos in
  if c < Interval.n_refs itv then Some (Interval.ref_pos_at itv c) else None

(* Evict temp [id] from register flat index [ri], inserting a spill store
   before the current instruction when the value is live and stale. *)
let evict st ri ~pos =
  let id = st.occ_temp.(ri) in
  assert (id >= 0);
  let itv = interval st id in
  if Interval.covers itv pos then begin
    if st.consistent.(id) then begin
      (* Second-chance consistency: skip the store, record the reliance if
         it is not locally established (paper §2.4). *)
      if not (Bitset.mem st.cur_w id) then Bitset.add st.cur_u id;
      match st.tr with
      | None -> ()
      | Some t ->
        Trace.emit t
          (Store_elided
             { temp = tname st id; id; pos; reg = reg_of_flat st ri })
    end
    else begin
      let slot = get_slot st id in
      emit st
        (Instr.make
           ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_st })
           (Instr.Spill_store { src = Loc.Reg (reg_of_flat st ri); slot }));
      st.res.stats.Stats.evict_stores <-
        st.res.stats.Stats.evict_stores + 1;
      st.consistent.(id) <- true;
      match st.tr with
      | None -> ()
      | Some t ->
        Trace.emit t
          (Spill_split
             {
               temp = tname st id;
               id;
               pos;
               reg = Some (reg_of_flat st ri);
               slot;
               next_ref = peek_next_ref st id ~pos;
             })
    end
  end
  else
    (* In a lifetime hole (or past the end): the next reference, if any,
       overwrites, so no store is needed. *)
    st.consistent.(id) <- false;
  clear_occupant st ri

(* Would evicting [id] right now emit a store? *)
let eviction_needs_store st id ~pos =
  Interval.covers (interval st id) pos && not st.consistent.(id)

let reg_busy_now st ri pos = seg_covering (Lifetime.reg_busy st.res.lifetimes ri) pos

let hole_end st ri pos =
  next_start_after (Lifetime.reg_busy st.res.lifetimes ri) pos - 1

(* A register that may hold a fresh value at [pos] for a temp of class
   [cls]: not blocked by a convention at [pos]. *)
let eligible st ~cls ~pos ri =
  Rclass.equal (Mreg.cls (reg_of_flat st ri)) cls
  && not (reg_busy_now st ri pos)

(* The free register, other than [ri], that may take a value of class
   [cls] at [pos] and whose availability hole covers [stop]: the
   smallest such hole, first in register order on ties (paper §2.2,
   §2.5); -1 when there is none. *)
let free_hole_for st ~cls ~pos ~stop ~ri =
  let lo, hi = Regidx.cls_range st.res.regidx cls in
  let best = ref (-1) and best_e = ref max_int in
  for rj = lo to hi - 1 do
    if rj <> ri && st.occ_temp.(rj) < 0 && not (reg_busy_now st rj pos)
    then begin
      let e = hole_end st rj pos in
      if e >= stop && (!best < 0 || e < !best_e) then begin
        best := rj;
        best_e := e
      end
    end
  done;
  !best

(* Allocate a register for temp [id] at [pos]. May evict.

   The decision tree is the paper's (§2.2, §2.3, §2.5, see the comments
   inline), expressed as plain loops over the class's contiguous flat
   range with hole ends cached in [st.he_scratch] — this runs on every
   def and reload, so it must not allocate. Tie-breaking everywhere is
   first-in-register-order, matching the list-based original. *)
let assign_reg st id ~pos ~forbidden =
  let itv = interval st id in
  let cls = Temp.cls (temp_of st id) in
  let stop = if Interval.is_empty itv then pos else Interval.stop itv in
  let lo, hi = Regidx.cls_range st.res.regidx cls in
  let he = st.he_scratch in
  for ri = lo to hi - 1 do
    he.(ri) <-
      (if List.mem ri forbidden then min_int
       else hole_end_if_free (Lifetime.reg_busy st.res.lifetimes ri) pos)
  done;
  (* 1. Free register whose hole covers the remaining lifetime: smallest
     sufficient hole (§2.2). *)
  let best = ref (-1) and best_he = ref max_int in
  let why = ref Trace.Free_hole in
  for ri = lo to hi - 1 do
    if
      he.(ri) >= stop
      && st.occ_temp.(ri) < 0
      && (!best < 0 || he.(ri) < !best_he)
    then begin
      best := ri;
      best_he := he.(ri)
    end
  done;
  if !best < 0 then begin
    (* 2. Registers whose occupant sits in a lifetime hole can be taken
       without spill cost (paper §2.1); smallest sufficient hole. *)
    for ri = lo to hi - 1 do
      if
        he.(ri) >= stop
        && st.occ_temp.(ri) >= 0
        && (!best < 0 || he.(ri) < !best_he)
        && not (Interval.covers (interval st st.occ_temp.(ri)) pos)
      then begin
        best := ri;
        best_he := he.(ri)
      end
    done;
    if !best >= 0 then begin
      why := Trace.Hole_evict;
      evict st !best ~pos
    end
  end;
  if !best < 0 then begin
    (* 3. No register can host the whole remaining lifetime for free.
       Either take the largest insufficient hole (paper §2.5; the
       temporary will be evicted when the hole expires) or displace a
       lower-priority occupant from a register whose availability does
       cover the lifetime — whichever keeps the more valuable set of
       values in registers, by the next-reference/loop-depth priority
       of §2.3. *)
    let incoming = benefit st id ~pos in
    let victim = ref (-1) and victim_b = ref infinity in
    for ri = lo to hi - 1 do
      if he.(ri) >= stop && st.occ_temp.(ri) >= 0 then begin
        let s = benefit st st.occ_temp.(ri) ~pos in
        if !victim < 0 || s < !victim_b then begin
          victim := ri;
          victim_b := s
        end
      end
    done;
    let free = ref (-1) and free_he = ref min_int in
    for ri = lo to hi - 1 do
      if
        he.(ri) > min_int
        && st.occ_temp.(ri) < 0
        && (!free < 0 || he.(ri) > !free_he)
      then begin
        free := ri;
        free_he := he.(ri)
      end
    done;
    (match st.tr with
    | None -> ()
    | Some t ->
      (* The full deliberation: every register still eligible at [pos],
         with the §2.3 keep-benefit of its occupant. [benefit] is
         idempotent at a fixed position, so re-evaluating it for the
         trace cannot shift the decision. *)
      let cands = ref [] in
      for ri = hi - 1 downto lo do
        if he.(ri) > min_int then
          cands :=
            {
              Trace.c_reg = reg_of_flat st ri;
              c_occupant =
                (if st.occ_temp.(ri) >= 0 then Some (tname st st.occ_temp.(ri))
                 else None);
              c_benefit =
                (if st.occ_temp.(ri) >= 0 then
                   benefit st st.occ_temp.(ri) ~pos
                 else Float.nan);
              c_hole_end = (if he.(ri) = max_int - 1 then max_int else he.(ri));
            }
            :: !cands
      done;
      Trace.emit t
        (Evict_choice
           {
             pos;
             incoming = tname st id;
             incoming_benefit = incoming;
             candidates = !cands;
           }));
    if !victim >= 0 && (!victim_b < incoming || !free < 0) then begin
      why := Trace.Displace;
      best_he := he.(!victim);
      evict st !victim ~pos;
      best := !victim
    end
    else if !free >= 0 then begin
      why := Trace.Insufficient;
      best_he := !free_he;
      best := !free
    end
    else begin
      (* Only insufficient-hole occupants remain: classic eviction of
         the lowest-priority one. *)
      let worst = ref (-1) and worst_b = ref infinity in
      for ri = lo to hi - 1 do
        if he.(ri) > min_int && st.occ_temp.(ri) >= 0 then begin
          let s = benefit st st.occ_temp.(ri) ~pos in
          if !worst < 0 || s < !worst_b then begin
            worst := ri;
            worst_b := s
          end
        end
      done;
      if !worst >= 0 then begin
        why := Trace.Displace;
        best_he := he.(!worst);
        evict st !worst ~pos;
        best := !worst
      end
    end
  end;
  if !best >= 0 then begin
    set_occupant st !best id ~pos;
    (match st.tr with
    | None -> ()
    | Some t ->
      Trace.emit t
        (Assign
           {
             temp = tname st id;
             id;
             pos;
             reg = reg_of_flat st !best;
             reason = !why;
             hole_end = (if !best_he = max_int - 1 then max_int else !best_he);
           }));
    !best
  end
  else
    raise
      (Out_of_registers
         (Printf.sprintf "no %s register available at position %d for %s"
            (Rclass.to_string cls) pos (tname st id)))

(* Convention sweep: before executing instruction [k], evict any temporary
   occupying a register whose next busy segment has arrived. Early second
   chance (paper §2.5) moves the value to a free register instead of
   storing it, when such a register can host the whole remaining
   lifetime. *)
let convention_sweep st ~k =
  let horizon = Linear.def_pos k in
  if st.sweep_at <= horizon then begin
  let pos = Linear.use_pos k in
  let n = Regidx.total st.res.regidx in
  for ri = 0 to n - 1 do
    if st.occ_temp.(ri) >= 0 && st.occ_next_busy.(ri) <= horizon then begin
      let id = st.occ_temp.(ri) in
      (* When the conflicting convention is this instruction's own def and
         the occupant dies at this instruction's use, the value is read in
         place and the register is reclaimed by [release_dead]; no
         eviction traffic is needed. *)
      let dies_here = st.occ_next_busy.(ri) >= pos && st.occ_stop.(ri) <= pos in
      if not dies_here then begin
      let moved =
        st.res.opts.early_second_chance
        && eviction_needs_store st id ~pos
        &&
        let stop = Interval.stop (interval st id) in
        let cls = Temp.cls (temp_of st id) in
        match free_hole_for st ~cls ~pos ~stop ~ri with
        | rj when rj >= 0 ->
          emit st
            (Instr.make
               ~tag:
                 (Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_mv })
               (Instr.Move
                  {
                    dst = Loc.Reg (reg_of_flat st rj);
                    src = Operand.Loc (Loc.Reg (reg_of_flat st ri));
                  }));
          st.res.stats.Stats.evict_moves <-
            st.res.stats.Stats.evict_moves + 1;
          (match st.tr with
          | None -> ()
          | Some t ->
            Trace.emit t
              (Early_second_chance
                 {
                   temp = tname st id;
                   id;
                   pos;
                   src = reg_of_flat st ri;
                   dst = reg_of_flat st rj;
                 }));
          st.occ_temp.(ri) <- -1;
          set_occupant st rj id ~pos;
          true
        | _ -> false
      in
      if not moved then evict st ri ~pos
      end
    end
  done;
  (* Tighten the event bound to the surviving occupants' true minimum. *)
  let m = ref max_int in
  for ri = 0 to n - 1 do
    if st.occ_temp.(ri) >= 0 && st.occ_next_busy.(ri) < !m then
      m := st.occ_next_busy.(ri)
  done;
  st.sweep_at <- !m
  end

(* Rewrite one use of temp [id] at instruction [k]; returns its register,
   reloading a spilled value first when needed (the second chance,
   paper §2.3). *)
let use_temp st id ~k ~forbidden =
  let pos = Linear.use_pos k in
  match st.loc.(id) with
  | Some (In_reg r) -> flat_of_reg st r
  | Some In_mem | None ->
    mark_start st id ~pos;
    let ri = assign_reg st id ~pos ~forbidden in
    let slot = get_slot st id in
    emit st
      (Instr.make
         ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_ld })
         (Instr.Spill_load { dst = Loc.Reg (reg_of_flat st ri); slot }));
    st.res.stats.Stats.evict_loads <- st.res.stats.Stats.evict_loads + 1;
    (match st.tr with
    | None -> ()
    | Some t ->
      Trace.emit t
        (Second_chance
           {
             temp = tname st id;
             id;
             pos;
             reg = Some (reg_of_flat st ri);
             slot;
           }));
    st.consistent.(id) <- true;
    (* the reload writes t's register, so consistency is now established
       locally: later uses of A_t in this block do not depend on block
       entry (WROTE_TR is the paper's "register written in b" bit) *)
    Bitset.add st.cur_w id;
    ri

(* Rewrite one def of temp [id] at instruction [k]. [move_src] is the
   flat register of the source when the instruction is a move eligible for
   the move optimisation of paper §2.5. *)
let def_temp st id ~k ~forbidden ~move_src =
  let pos = Linear.def_pos k in
  let ri =
    match st.loc.(id) with
    | Some (In_reg r) -> flat_of_reg st r
    | Some In_mem | None -> (
      mark_start st id ~pos;
      let miss why =
        match st.tr with
        | None -> ()
        | Some t ->
          Trace.emit t (Pref_miss { temp = tname st id; id; pos; why })
      in
      let try_move_opt =
        (* The source register is naturally in [forbidden]; for a move it
           is precisely the register we want to reuse, so it is checked
           against conventions only. *)
        match move_src with
        | Some rs
          when st.res.opts.move_opt
               && st.occ_temp.(rs) < 0
               && eligible st ~cls:(Temp.cls (temp_of st id)) ~pos rs ->
          let itv = interval st id in
          let stop = if Interval.is_empty itv then pos else Interval.stop itv in
          if hole_end st rs pos >= stop then Some rs
          else begin
            miss "source register's availability hole too small";
            None
          end
        | Some _ ->
          miss
            (if not st.res.opts.move_opt then "move optimisation disabled"
             else "source register occupied or convention-blocked");
          None
        | None -> None
      in
      match try_move_opt with
      | Some rs ->
        set_occupant st rs id ~pos;
        (match st.tr with
        | None -> ()
        | Some t ->
          Trace.emit t
            (Assign
               {
                 temp = tname st id;
                 id;
                 pos;
                 reg = reg_of_flat st rs;
                 reason = Trace.Move_pref;
                 hole_end =
                   (let e = hole_end st rs pos in
                    if e = max_int - 1 then max_int else e);
               }));
        rs
      | None -> assign_reg st id ~pos ~forbidden)
  in
  st.consistent.(id) <- false;
  Bitset.add st.cur_w id;
  ri

(* Free registers whose occupant's lifetime segment has ended. *)
let release_dead st ~pos =
  if st.dead_at <= pos then begin
    let n = Regidx.total st.res.regidx in
    let m = ref max_int in
    for ri = 0 to n - 1 do
      let id = st.occ_temp.(ri) in
      if id >= 0 then
        if st.occ_stop.(ri) <= pos then begin
          (match st.tr with
          | None -> ()
          | Some t ->
            Trace.emit t
              (Expire
                 { temp = tname st id; id; pos; reg = reg_of_flat st ri }));
          st.occ_temp.(ri) <- -1;
          st.loc.(id) <- Some In_mem;
          st.consistent.(id) <- false
        end
        else if st.occ_stop.(ri) < !m then m := st.occ_stop.(ri)
    done;
    st.dead_at <- !m
  end

let analyse stats liveness machine func =
  let regidx = Regidx.create machine in
  let liveness =
    match liveness with
    | Some l -> l
    | None -> Stats.timed stats Stats.Liveness (fun () -> Liveness.compute func)
  in
  let lifetimes =
    Stats.timed stats Stats.Lifetime (fun () ->
        Lifetime.compute regidx func liveness (Loop.compute (Func.cfg func)))
  in
  (regidx, liveness, lifetimes)

let scan ?(opts = default_options) ?trace ?liveness machine func =
  let stats = Stats.create () in
  Trace.emit_fn trace func;
  let cfg = Func.cfg func in
  let regidx, liveness, lifetimes = analyse stats liveness machine func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let ntemps = Func.temp_bound func in
  let res =
    {
      func;
      regidx;
      liveness;
      lifetimes;
      top_loc = Array.make nb [||];
      bottom_loc = Array.make nb [||];
      are_consistent = Array.init nb (fun _ -> Bitset.create ntemps);
      used_consistency = Array.init nb (fun _ -> Bitset.create ntemps);
      wrote_tr = Array.init nb (fun _ -> Bitset.create ntemps);
      slot_of = Array.make ntemps (-1);
      stats;
      opts;
      trace;
    }
  in
  let st =
    {
      res;
      machine;
      loc = Array.make ntemps None;
      consistent = Array.make ntemps false;
      cursor = Array.make ntemps 0;
      occ_temp = Array.make (Regidx.total regidx) (-1);
      occ_next_busy = Array.make (Regidx.total regidx) max_int;
      occ_stop = Array.make (Regidx.total regidx) max_int;
      sweep_at = max_int;
      dead_at = max_int;
      he_scratch = Array.make (Regidx.total regidx) min_int;
      emit_rev = [];
      cur_w = Bitset.create ntemps;
      cur_u = Bitset.create ntemps;
      tr = trace;
      started = Array.make ntemps false;
      bound = [];
      src_reg = -1;
      use_reg = Array.make ntemps (-1);
    }
  in
  let linear = Lifetime.linear lifetimes in
  let visited = Array.make nb false in
  let preds = (Cfg.edge_tables cfg).Cfg.preds in
  (* The operand callbacks of the use walks, built once. Pre-binding
     puts every register-resident use in [st.bound], so that allocating a
     reload for one source never evicts another source of the same
     instruction. *)
  let bind ri = st.bound <- ri :: st.bound in
  let prebind_temp t =
    match st.loc.(Temp.id t) with
    | Some (In_reg r) -> bind (flat_of_reg st r)
    | Some In_mem | None -> ()
  in
  let bind_reg r = bind (flat_of_reg st r) in
  (* Resolving a use: a register source binds itself; a temp gets its
     register, reloading it first when it is in memory (the reload is
     emitted before the instruction). *)
  let at_k = ref 0 in
  let resolve_temp t =
    let id = Temp.id t in
    let ri = use_temp st id ~k:!at_k ~forbidden:st.bound in
    bind ri;
    st.src_reg <- ri;
    st.use_reg.(id) <- ri
  in
  let resolve_reg r =
    let ri = flat_of_reg st r in
    bind ri;
    st.src_reg <- ri
  in
  let next_pos = ref 0 in
  let advance t = advance_cursor st (Temp.id t) ~pos:!next_pos in
  let no_reg (_ : Mreg.t) = () in
  (* One rewrite: uses substitute from the resolved registers (pure, so
     operand evaluation order is irrelevant); defs allocate. *)
  let use (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg _ -> l
    | Loc.Temp t -> Loc.Reg (reg_of_flat st st.use_reg.(Temp.id t))
  in
  let move_src = ref None in
  let def (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg r ->
      bind_reg r;
      l
    | Loc.Temp t ->
      (* sources that died at this instruction release their registers
         to the destination: reads happen before the write *)
      let forbidden = List.filter (fun ri -> st.occ_temp.(ri) >= 0) st.bound in
      let ri =
        def_temp st (Temp.id t) ~k:!at_k ~forbidden ~move_src:!move_src
      in
      bind ri;
      Loc.Reg (reg_of_flat st ri)
  in
  let process_instr k (i : Instr.t) =
    convention_sweep st ~k;
    at_k := k;
    st.bound <- [];
    st.src_reg <- -1;
    Instr.iter_uses ~temp:prebind_temp ~reg:bind_reg i;
    (* Resolve every use to its register up front and remember it: after
       [release_dead] a dead source's register is no longer recoverable
       from the linear state, and having the mapping lets the rewrite
       below happen in a single pass. *)
    Instr.iter_uses ~temp:resolve_temp ~reg:resolve_reg i;
    next_pos := Linear.use_pos k + 1;
    Instr.iter_uses ~temp:advance ~reg:no_reg i;
    release_dead st ~pos:(Linear.use_pos k);
    move_src :=
      (match Instr.desc i with
      | Instr.Move { src = Operand.Loc _; _ } -> Some st.src_reg
      | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
      | Instr.Store _ | Instr.Spill_load _ | Instr.Spill_store _
      | Instr.Call _ | Instr.Nop ->
        None);
    emit st (Instr.rewrite ~use ~def i)
  in
  let term_use (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg r ->
      bind_reg r;
      l
    | Loc.Temp t ->
      let ri = use_temp st (Temp.id t) ~k:!at_k ~forbidden:st.bound in
      bind ri;
      Loc.Reg (reg_of_flat st ri)
  in
  Stats.timed stats Stats.Scan (fun () ->
  for bi = 0 to nb - 1 do
    let b = blocks.(bi) in
    (match st.tr with
    | None -> ()
    | Some t -> Trace.emit t (Block { label = Block.label b }));
    st.emit_rev <- [];
    st.cur_w <- res.wrote_tr.(bi);
    st.cur_u <- res.used_consistency.(bi);
    (* Record the allocation assumptions at the top of the block: the
       linear state, with never-seen temporaries placed in memory. *)
    res.top_loc.(bi) <- boundary_locs st (Liveness.live_in liveness bi);
    (match opts.consistency with
    | Iterative -> ()
    | Conservative ->
      (* Strictly linear variant (paper §2.6): trust consistency at block
         entry only when every predecessor's saved vector grants it. *)
      let ps = preds.(bi) in
      let granted id =
        Array.length ps > 0
        && Array.for_all
             (fun pi -> visited.(pi) && Bitset.mem res.are_consistent.(pi) id)
             ps
      in
      for id = 0 to ntemps - 1 do
        if st.consistent.(id) && not (granted id) then
          st.consistent.(id) <- false
      done);
    Array.iteri
      (fun j i -> process_instr (Linear.first_instr linear bi + j) i)
      (Block.body b);
    (* Terminator: sweep, then rewrite its uses (reloads precede it). *)
    let tk = Linear.last_instr linear bi in
    convention_sweep st ~k:tk;
    at_k := tk;
    st.bound <- [];
    Block.iter_term_uses ~temp:prebind_temp ~reg:bind_reg b;
    Block.rewrite_term b ~use:term_use;
    next_pos := Linear.use_pos tk + 1;
    Block.iter_term_uses ~temp:advance ~reg:no_reg b;
    release_dead st ~pos:(Linear.use_pos tk);
    (* Record bottom-of-block state and the consistency snapshot. *)
    res.bottom_loc.(bi) <- boundary_locs st (Liveness.live_out liveness bi);
    for id = 0 to ntemps - 1 do
      if st.consistent.(id) then Bitset.add res.are_consistent.(bi) id
    done;
    Block.set_body b (Array.of_list (List.rev st.emit_rev));
    visited.(bi) <- true
  done);
  res
