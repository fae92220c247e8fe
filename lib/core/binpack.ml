open Lsra_ir
open Lsra_analysis

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
  top_loc : int array;
  top_off : int array;
  bottom_loc : int array;
  bottom_off : int array;
  are_consistent : Bitset.t array;
  used_consistency : Bitset.t array;
  wrote_tr : Bitset.t array;
  slot_of : int array;
  change_off : int array;
  ws : Workspace.t;
  scan_no : int;
  stats : Stats.t;
  opts : options;
  trace : Trace.t option;
}

let change_log res =
  if res.ws.Workspace.scans <> res.scan_no then
    invalid_arg "Binpack.change_log: a later scan reused the log";
  res.ws.Workspace.changes.Workspace.a

exception Out_of_registers of string

module Busy_cursor = struct
  type t = { segs : Interval.seg array; mutable i : int; mutable at : int }

  let create segs = { segs; i = 0; at = min_int }

  (* Move to the first segment ending at or after [pos]. *)
  let seek c pos =
    if pos < c.at then invalid_arg "Binpack.Busy_cursor: position moved back";
    c.at <- pos;
    while c.i < Array.length c.segs && c.segs.(c.i).e < pos do
      c.i <- c.i + 1
    done

  (* Segments are disjoint, so when the current one covers [pos] the next
     one starts after it. *)
  let next_start_after c pos =
    seek c pos;
    let n = Array.length c.segs in
    let j = if c.i < n && c.segs.(c.i).s <= pos then c.i + 1 else c.i in
    if j < n then c.segs.(j).s else max_int

  let hole_end_if_free c pos =
    seek c pos;
    if c.i >= Array.length c.segs then max_int - 1
    else if c.segs.(c.i).s <= pos then min_int
    else c.segs.(c.i).s - 1
end

type state = {
  res : t;
  loc : int array; (* per temp id: flat register, or -1 (memory, unseen) *)
  consistent : Bitset.t; (* per temp id: the working ARE_CONSISTENT bit *)
  cursor : int array; (* per temp id: next-reference cursor *)
  occ_temp : int array; (* per flat reg: occupant temp id, or -1 *)
  occ_next_busy : int array; (* per flat reg: next convention event *)
  occ_stop : int array;
  (* per flat reg: occupant's lifetime stop (max_int when the occupant's
     interval is empty), so the per-instruction death sweeps compare ints
     instead of chasing the interval *)
  busy : Busy_cursor.t array; (* per flat reg *)
  mutable sweep_at : int;
  (* lower bound on the earliest occupied register's next convention
     event: [convention_sweep] is a no-op strictly before it *)
  mutable dead_at : int;
  (* lower bound on the earliest occupant death: [release_dead] is a
     no-op strictly before it *)
  he_scratch : int array;
  (* per flat reg, valid only within one [assign_reg] call: hole end at
     the current position, [min_int] for ineligible registers *)
  ws : Workspace.t; (* [ws.body]: the current block's output *)
  mutable body_len : int;
  mutable cur_w : Bitset.t; (* WROTE_TR of the current block *)
  mutable cur_u : Bitset.t; (* USED_CONSISTENCY of the current block *)
  tr : Trace.t option; (* decision-trace sink, [None] in production *)
  started : bool array; (* per temp id: Start event already emitted *)
  bound : int array;
  (* per flat reg: equal to [stamp] when the current instruction reads or
     writes the register *)
  mutable stamp : int; (* bumped once per instruction *)
  mutable src_reg : int;
  (* flat register of the current instruction's last use, -1 if none *)
  use_reg : int array;
  (* per temp id: flat register its use at the current instruction was
     resolved to *)
}

(* Every write of a temp's location goes through here, so that the
   change log holds each change. *)
let set_loc st id v =
  if st.loc.(id) <> v then begin
    st.loc.(id) <- v;
    Workspace.buf_push st.ws.changes id
  end

let emit st i =
  let ws = st.ws in
  if st.body_len = Array.length ws.body then
    ws.body <- Array.append ws.body (Array.make (max 16 st.body_len) i);
  ws.body.(st.body_len) <- i;
  st.body_len <- st.body_len + 1

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
  (* Index-based: runs inside the eviction scans, so it allocates
     nothing. *)
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
let loc_of_flat st ri = Regidx.to_loc st.res.regidx ri

(* Write the scan's location of every temp of [live], in [Bitset.iter]
   order, into [dst] from [off] on. *)
let boundary_locs st live dst off =
  let k = ref off in
  Bitset.iter (fun id -> dst.(!k) <- st.loc.(id); incr k) live

let set_occupant st ri id ~pos =
  st.occ_temp.(ri) <- id;
  st.occ_next_busy.(ri) <- Busy_cursor.next_start_after st.busy.(ri) pos;
  (let itv = interval st id in
   st.occ_stop.(ri) <-
     (if Interval.is_empty itv then max_int else Interval.stop itv));
  (* Occupant removal leaves the bounds stale-low, which is safe: the
     sweep runs once for nothing and tightens them. *)
  if st.occ_next_busy.(ri) < st.sweep_at then st.sweep_at <- st.occ_next_busy.(ri);
  if st.occ_stop.(ri) < st.dead_at then st.dead_at <- st.occ_stop.(ri);
  set_loc st id ri

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
    if Bitset.mem st.consistent id then begin
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
           (Instr.Spill_store { src = loc_of_flat st ri; slot }));
      st.res.stats.Stats.evict_stores <-
        st.res.stats.Stats.evict_stores + 1;
      Bitset.add st.consistent id;
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
    Bitset.remove st.consistent id;
  st.occ_temp.(ri) <- -1;
  set_loc st id (-1)

(* The free register, other than [ri], that may take a value of class
   [cls] at [pos] and whose availability hole covers [stop]: the
   smallest such hole, first in register order on ties (paper §2.2,
   §2.5); -1 when there is none. *)
let free_hole_for st ~cls ~pos ~stop ~ri =
  let lo, hi = Regidx.cls_range st.res.regidx cls in
  let best = ref (-1) and best_e = ref max_int in
  for rj = lo to hi - 1 do
    if rj <> ri && st.occ_temp.(rj) < 0 then begin
      (* [min_int] when convention-blocked, so never [>= stop] *)
      let e = Busy_cursor.hole_end_if_free st.busy.(rj) pos in
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
   first-in-register-order, matching the list-based original.

   The registers the current instruction binds are forbidden; for a def
   ([~def:true]) only those still occupied, since sources that died at
   the instruction release theirs to the destination. *)
let assign_reg st id ~pos ~def =
  let itv = interval st id in
  let cls = Temp.cls (temp_of st id) in
  let stop = if Interval.is_empty itv then pos else Interval.stop itv in
  let lo, hi = Regidx.cls_range st.res.regidx cls in
  let he = st.he_scratch in
  for ri = lo to hi - 1 do
    he.(ri) <-
      (if st.bound.(ri) = st.stamp && ((not def) || st.occ_temp.(ri) >= 0)
       then min_int
       else Busy_cursor.hole_end_if_free st.busy.(ri) pos)
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
        (* only when the eviction would store *)
        && Interval.covers (interval st id) pos
        && not (Bitset.mem st.consistent id)
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
                    dst = loc_of_flat st rj;
                    src = Operand.Loc (loc_of_flat st ri);
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
let use_temp st id ~k =
  let pos = Linear.use_pos k in
  if st.loc.(id) >= 0 then st.loc.(id)
  else begin
    mark_start st id ~pos;
    let ri = assign_reg st id ~pos ~def:false in
    let slot = get_slot st id in
    emit st
      (Instr.make
         ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_ld })
         (Instr.Spill_load { dst = loc_of_flat st ri; slot }));
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
    Bitset.add st.consistent id;
    (* the reload writes t's register, so consistency is now established
       locally: later uses of A_t in this block do not depend on block
       entry (WROTE_TR is the paper's "register written in b" bit) *)
    Bitset.add st.cur_w id;
    ri
  end

let pref_miss st id ~pos why =
  match st.tr with
  | None -> ()
  | Some t -> Trace.emit t (Pref_miss { temp = tname st id; id; pos; why })

(* The move optimisation of paper §2.5: the hole end of the move's source
   register [rs] when [id] may take it, else -1 ([rs] is -1 when the
   instruction is not an eligible move). The source register is bound by
   the instruction; it is precisely the register we want to reuse, so it
   is checked against conventions only. *)
let move_pref st id ~pos ~rs =
  if rs < 0 then -1
  else
    let itv = interval st id in
    let cls = Temp.cls (Interval.temp itv) in
    let e =
      if
        st.res.opts.move_opt
        && st.occ_temp.(rs) < 0
        && Rclass.equal (Mreg.cls (reg_of_flat st rs)) cls
      then Busy_cursor.hole_end_if_free st.busy.(rs) pos
      else min_int (* never [>= stop] *)
    in
    if e >= (if Interval.is_empty itv then pos else Interval.stop itv) then e
    else begin
      pref_miss st id ~pos
        (if not st.res.opts.move_opt then "move optimisation disabled"
         else if e = min_int then
           "source register occupied or convention-blocked"
         else "source register's availability hole too small");
      -1
    end

(* Rewrite one def of temp [id] at instruction [k]. [move_src] is the
   flat register of the source when the instruction is a move eligible for
   the move optimisation, -1 otherwise. *)
let def_temp st id ~k ~move_src =
  let pos = Linear.def_pos k in
  let ri =
    if st.loc.(id) >= 0 then st.loc.(id)
    else begin
      mark_start st id ~pos;
      let e = move_pref st id ~pos ~rs:move_src in
      if e < 0 then assign_reg st id ~pos ~def:true
      else begin
        set_occupant st move_src id ~pos;
        (match st.tr with
        | None -> ()
        | Some t ->
          Trace.emit t
            (Assign
               {
                 temp = tname st id;
                 id;
                 pos;
                 reg = reg_of_flat st move_src;
                 reason = Trace.Move_pref;
                 hole_end = (if e = max_int - 1 then max_int else e);
               }));
        move_src
      end
    end
  in
  Bitset.remove st.consistent id;
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
          set_loc st id (-1);
          Bitset.remove st.consistent id
        end
        else if st.occ_stop.(ri) < !m then m := st.occ_stop.(ri)
    done;
    st.dead_at <- !m
  end

let analyse stats liveness machine func =
  let regidx = Regidx.create machine in
  let lifetimes =
    Stats.timed stats Stats.Lifetime (fun () ->
        Lifetime.compute regidx func liveness (Loop.compute (Func.cfg func)))
  in
  (regidx, lifetimes)

let scan ?(opts = default_options) ?trace ?liveness machine func =
  let stats = Stats.create () in
  Trace.emit_fn trace func;
  let cfg = Func.cfg func in
  let liveness =
    match liveness with
    | Some l -> l
    | None -> Stats.timed stats Stats.Liveness (fun () -> Liveness.compute func)
  in
  let regidx, lifetimes = analyse stats liveness machine func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let ntemps = Func.temp_bound func in
  let nregs = Regidx.total regidx in
  (* Per-block offsets into the flat boundary arrays. *)
  let offsets live =
    let off = Array.make (nb + 1) 0 in
    for bi = 0 to nb - 1 do
      off.(bi + 1) <- off.(bi) + Bitset.cardinal (live bi)
    done;
    off
  in
  let top_off = offsets (Liveness.live_in liveness)
  and bottom_off = offsets (Liveness.live_out liveness) in
  let ws = Workspace.get () in
  ws.scans <- ws.scans + 1;
  Workspace.buf_clear ws.changes;
  let res =
    {
      func;
      regidx;
      liveness;
      lifetimes;
      top_loc = Array.make top_off.(nb) (-1);
      top_off;
      bottom_loc = Array.make bottom_off.(nb) (-1);
      bottom_off;
      are_consistent = Array.init nb (fun _ -> Bitset.create ntemps);
      used_consistency = Array.init nb (fun _ -> Bitset.create ntemps);
      wrote_tr = Array.init nb (fun _ -> Bitset.create ntemps);
      slot_of = Array.make ntemps (-1);
      change_off = Array.make (nb + 1) 0;
      ws;
      scan_no = ws.scans;
      stats;
      opts;
      trace;
    }
  in
  let st =
    {
      res;
      loc = Array.make ntemps (-1);
      consistent = Bitset.create ntemps;
      cursor = Array.make ntemps 0;
      occ_temp = Array.make nregs (-1);
      occ_next_busy = Array.make nregs max_int;
      occ_stop = Array.make nregs max_int;
      busy =
        Array.init nregs (fun ri ->
            Busy_cursor.create (Lifetime.reg_busy lifetimes ri));
      sweep_at = max_int;
      dead_at = max_int;
      he_scratch = Array.make nregs min_int;
      ws;
      body_len = 0;
      cur_w = Bitset.create ntemps;
      cur_u = Bitset.create ntemps;
      tr = trace;
      started = Array.make ntemps false;
      bound = Array.make nregs (-1);
      stamp = 0;
      src_reg = -1;
      use_reg = Array.make ntemps (-1);
    }
  in
  let linear = Lifetime.linear lifetimes in
  let preds = (Cfg.edge_tables cfg).Cfg.preds in
  (* The operand callbacks of the use walks, built once. Pre-binding
     stamps every register-resident use, so that allocating a reload for
     one source never evicts another source of the same instruction. *)
  let bind ri = st.bound.(ri) <- st.stamp in
  let prebind_temp t = let r = st.loc.(Temp.id t) in if r >= 0 then bind r in
  let bind_reg r = bind (Regidx.of_reg regidx r) in
  let at_k = ref 0 and next_pos = ref 0 in
  let start_instr k =
    convention_sweep st ~k;
    at_k := k;
    next_pos := Linear.use_pos k + 1;
    st.stamp <- st.stamp + 1;
    st.src_reg <- -1
  in
  (* Resolving a use: a register source binds itself; a temp gets its
     register, reloading it first when it is in memory (the reload is
     emitted before the instruction). *)
  let resolve_temp t =
    let id = Temp.id t in
    let ri = use_temp st id ~k:!at_k in
    bind ri;
    st.src_reg <- ri;
    st.use_reg.(id) <- ri
  in
  let resolve_reg r =
    let ri = Regidx.of_reg regidx r in
    bind ri;
    st.src_reg <- ri
  in
  let advance t = advance_cursor st (Temp.id t) ~pos:!next_pos in
  let no_reg (_ : Mreg.t) = () in
  (* One rewrite: uses substitute from the resolved registers (pure, so
     operand evaluation order is irrelevant); defs allocate. *)
  let use (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg _ -> l
    | Loc.Temp t -> Regidx.to_loc regidx st.use_reg.(Temp.id t)
  in
  let move_src = ref (-1) in
  let def (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg r ->
      bind_reg r;
      l
    | Loc.Temp t ->
      let ri = def_temp st (Temp.id t) ~k:!at_k ~move_src:!move_src in
      bind ri;
      Regidx.to_loc regidx ri
  in
  let process_instr k (i : Instr.t) =
    start_instr k;
    Instr.iter_uses ~temp:prebind_temp ~reg:bind_reg i;
    (* Resolve every use to its register up front and remember it: after
       [release_dead] a dead source's register is no longer recoverable
       from the linear state, and having the mapping lets the rewrite
       below happen in a single pass. *)
    Instr.iter_uses ~temp:resolve_temp ~reg:resolve_reg i;
    Instr.iter_uses ~temp:advance ~reg:no_reg i;
    release_dead st ~pos:(Linear.use_pos k);
    move_src :=
      (match Instr.desc i with
      | Instr.Move { src = Operand.Loc _; _ } -> st.src_reg
      | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
      | Instr.Store _ | Instr.Spill_load _ | Instr.Spill_store _
      | Instr.Call _ | Instr.Nop ->
        -1);
    emit st (Instr.rewrite ~use ~def i)
  in
  let term_use (l : Loc.t) : Loc.t =
    match l with
    | Loc.Reg r ->
      bind_reg r;
      l
    | Loc.Temp t ->
      let ri = use_temp st (Temp.id t) ~k:!at_k in
      bind ri;
      Regidx.to_loc regidx ri
  in
  let meet_snapshot pi =
    ignore (Bitset.inter_into ~dst:st.consistent ~src:res.are_consistent.(pi))
  in
  Stats.timed stats Stats.Scan (fun () ->
  for bi = 0 to nb - 1 do
    let b = blocks.(bi) in
    (match st.tr with
    | None -> ()
    | Some t -> Trace.emit t (Block { label = Block.label b }));
    st.body_len <- 0;
    st.cur_w <- res.wrote_tr.(bi);
    st.cur_u <- res.used_consistency.(bi);
    (* Record the allocation assumptions at the top of the block. No
       location changes between the previous block's bottom record and
       this one, so one offset marks both. *)
    res.change_off.(bi) <- ws.changes.n;
    boundary_locs st (Liveness.live_in liveness bi) res.top_loc top_off.(bi);
    (match opts.consistency with
    | Iterative -> ()
    | Conservative ->
      (* Strictly linear variant (paper §2.6): trust consistency at block
         entry only when every predecessor's saved vector grants it. A
         predecessor not before [bi] in the linear order has none yet. *)
      let ps = preds.(bi) in
      if Array.length ps = 0 || Array.exists (fun pi -> pi >= bi) ps then
        Bitset.clear st.consistent
      else Array.iter meet_snapshot ps);
    let body = Block.body b and first = Linear.first_instr linear bi in
    for j = 0 to Array.length body - 1 do
      process_instr (first + j) body.(j)
    done;
    (* Terminator: sweep, then rewrite its uses (reloads precede it). *)
    let tk = Linear.last_instr linear bi in
    start_instr tk;
    Block.iter_term_uses ~temp:prebind_temp ~reg:bind_reg b;
    Block.rewrite_term b ~use:term_use;
    Block.iter_term_uses ~temp:advance ~reg:no_reg b;
    release_dead st ~pos:(Linear.use_pos tk);
    (* Record bottom-of-block state and the consistency snapshot. *)
    boundary_locs st (Liveness.live_out liveness bi) res.bottom_loc
      bottom_off.(bi);
    Bitset.assign ~dst:res.are_consistent.(bi) ~src:st.consistent;
    Block.set_body b (Array.sub st.ws.body 0 st.body_len)
  done;
  res.change_off.(nb) <- ws.changes.n);
  res
