open Lsra_ir
open Lsra_analysis
open Lsra_target

(* The linear scan of Poletto, Engler and Kaashoek's `C/tcc system, as
   described in the paper's related work (§4): lifetimes are convex
   intervals (no holes), scanned in start order against an active list;
   when the registers are exhausted the interval with the furthest
   endpoint is spilled to memory for its whole lifetime. Spill code uses
   registers reserved up front (tcc's approach), taken from the
   callee-saved end of each file so they never collide with the calling
   convention. *)

exception Out_of_registers of string

let n_reserved = 2

type t = {
  func : Func.t;
  regidx : Regidx.t;
  lifetimes : Lifetime.t;
  assignment : Mreg.t option array;
  slot_of : int option array;
  stats : Stats.t;
  trace : Trace.t option;
}

let convex_span itv = (Interval.start itv, Interval.stop itv)

let allocate ?trace ?liveness machine func =
  let regidx = Regidx.create machine in
  let liveness =
    match liveness with Some l -> l | None -> Liveness.compute func
  in
  let loops = Loop.compute (Func.cfg func) in
  let lifetimes = Lifetime.compute regidx func liveness loops in
  let ntemps = Func.temp_bound func in
  let t =
    {
      func;
      regidx;
      lifetimes;
      assignment = Array.make ntemps None;
      slot_of = Array.make ntemps None;
      stats = Stats.create ();
      trace;
    }
  in
  let tname id =
    Temp.to_string (Interval.temp (Lifetime.interval_of_id lifetimes id))
  in
  let tr ev = match trace with None -> () | Some sink -> Trace.emit sink ev in
  List.iter
    (fun cls ->
      let all = Regidx.of_cls regidx cls in
      let n_alloc = List.length all - n_reserved in
      if n_alloc < 1 then
        raise (Out_of_registers "too few registers for reserved spill regs");
      let allocatable = List.filteri (fun i _ -> i < n_alloc) all in
      (* Intervals of this class, sorted by start. *)
      let items = ref [] in
      for id = 0 to ntemps - 1 do
        let itv = Lifetime.interval_of_id lifetimes id in
        if
          (not (Interval.is_empty itv))
          && Rclass.equal (Temp.cls (Interval.temp itv)) cls
        then items := id :: !items
      done;
      let items =
        List.sort
          (fun a b ->
            Int.compare
              (Interval.start (Lifetime.interval_of_id lifetimes a))
              (Interval.start (Lifetime.interval_of_id lifetimes b)))
          !items
      in
      (* active: (end, id, flat reg), sorted by increasing end *)
      let active = ref [] in
      let busy_conflict ri s e =
        let segs = Lifetime.reg_busy lifetimes ri in
        Array.exists (fun { Interval.s = bs; e = be } -> bs <= e && s <= be) segs
      in
      let spill id =
        t.assignment.(id) <- None;
        let s = Func.fresh_slot func in
        t.slot_of.(id) <- Some s;
        tr (Trace.Slot_alloc { temp = tname id; id; slot = s })
      in
      List.iter
        (fun id ->
          let itv = Lifetime.interval_of_id lifetimes id in
          let s, e = convex_span itv in
          (* expire old intervals *)
          active := List.filter (fun (e', _, _) -> e' >= s) !active;
          let in_use = List.map (fun (_, _, ri) -> ri) !active in
          let free =
            List.filter
              (fun ri ->
                (not (List.mem ri in_use)) && not (busy_conflict ri s e))
              allocatable
          in
          match free with
          | ri :: _ ->
            t.assignment.(id) <- Some (Regidx.to_reg regidx ri);
            tr
              (Trace.Assign
                 {
                   temp = tname id;
                   id;
                   pos = s;
                   reg = Regidx.to_reg regidx ri;
                   reason = Trace.Whole;
                   hole_end = max_int;
                 });
            active :=
              List.merge
                (fun (a, _, _) (b, _, _) -> Int.compare a b)
                !active
                [ (e, id, ri) ]
          | [] -> (
            (* spill the furthest endpoint among active ∪ {current} *)
            match List.rev !active with
            | (e', id', ri') :: _ when e' > e && not (busy_conflict ri' s e)
              ->
              spill id';
              active :=
                List.filter (fun (_, i, _) -> i <> id') !active;
              t.assignment.(id) <- Some (Regidx.to_reg regidx ri');
              tr
                (Trace.Assign
                   {
                     temp = tname id;
                     id;
                     pos = s;
                     reg = Regidx.to_reg regidx ri';
                     reason = Trace.Whole;
                     hole_end = max_int;
                   });
              active :=
                List.merge
                  (fun (a, _, _) (b, _, _) -> Int.compare a b)
                  !active
                  [ (e, id, ri') ]
            | _ -> spill id))
        items)
    Rclass.all;
  t

let rewrite t =
  let func = t.func in
  let regidx = t.regidx in
  let machine = Regidx.machine regidx in
  let stats = t.stats in
  let lifetimes = t.lifetimes in
  let tname id =
    Temp.to_string (Interval.temp (Lifetime.interval_of_id lifetimes id))
  in
  let tr ev = match t.trace with None -> () | Some sink -> Trace.emit sink ev in
  let spill_tag kind = Instr.Spill { phase = Instr.Evict; kind } in
  let reserved cls n =
    let all = Machine.regs machine cls in
    let total = List.length all in
    List.nth all (total - 1 - (n mod n_reserved))
  in
  let slot id =
    match t.slot_of.(id) with
    | Some s -> s
    | None ->
      let s = Func.fresh_slot func in
      t.slot_of.(id) <- Some s;
      tr (Trace.Slot_alloc { temp = tname id; id; slot = s });
      s
  in
  Cfg.iter_blocks
    (fun b ->
      let out = ref [] in
      let emit i = out := i :: !out in
      let rewrite_instr i =
        let loads = ref [] and stores = ref [] in
        let counter = ref 0 in
        let use (l : Loc.t) =
          match l with
          | Loc.Reg _ -> l
          | Loc.Temp tp -> (
            let id = Temp.id tp in
            match t.assignment.(id) with
            | Some r -> Loc.Reg r
            | None ->
              let r = reserved (Temp.cls tp) !counter in
              incr counter;
              let sl = slot id in
              loads :=
                Instr.make ~tag:(spill_tag Instr.Spill_ld)
                  (Instr.Spill_load { dst = Loc.Reg r; slot = sl })
                :: !loads;
              stats.Stats.evict_loads <- stats.Stats.evict_loads + 1;
              tr
                (Trace.Second_chance
                   { temp = tname id; id; pos = -1; reg = Some r; slot = sl });
              Loc.Reg r)
        in
        let def (l : Loc.t) =
          match l with
          | Loc.Reg _ -> l
          | Loc.Temp tp -> (
            let id = Temp.id tp in
            match t.assignment.(id) with
            | Some r -> Loc.Reg r
            | None ->
              let r = reserved (Temp.cls tp) !counter in
              incr counter;
              let sl = slot id in
              stores :=
                Instr.make ~tag:(spill_tag Instr.Spill_st)
                  (Instr.Spill_store { src = Loc.Reg r; slot = sl })
                :: !stores;
              stats.Stats.evict_stores <- stats.Stats.evict_stores + 1;
              tr
                (Trace.Spill_split
                   {
                     temp = tname id;
                     id;
                     pos = -1;
                     reg = Some r;
                     slot = sl;
                     next_ref = None;
                   });
              Loc.Reg r)
        in
        let i' = Instr.rewrite ~use ~def i in
        List.iter emit (List.rev !loads);
        emit i';
        List.iter emit (List.rev !stores)
      in
      Array.iter rewrite_instr (Block.body b);
      let counter = ref 0 in
      Block.rewrite_term b ~use:(fun l ->
          match l with
          | Loc.Reg _ -> l
          | Loc.Temp tp -> (
            let id = Temp.id tp in
            match t.assignment.(id) with
            | Some r -> Loc.Reg r
            | None ->
              let r = reserved (Temp.cls tp) !counter in
              incr counter;
              let sl = slot id in
              emit
                (Instr.make ~tag:(spill_tag Instr.Spill_ld)
                   (Instr.Spill_load { dst = Loc.Reg r; slot = sl }));
              stats.Stats.evict_loads <- stats.Stats.evict_loads + 1;
              tr
                (Trace.Second_chance
                   { temp = tname id; id; pos = -1; reg = Some r; slot = sl });
              Loc.Reg r));
      Block.set_body b (Array.of_list (List.rev !out)))
    (Func.cfg func);
  stats.Stats.slots <- Func.n_slots func

let run ?trace ?liveness machine func =
  Trace.emit_fn trace func;
  let t = allocate ?trace ?liveness machine func in
  rewrite t;
  t.stats
