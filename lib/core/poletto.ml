open Lsra_ir
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

let convex_span itv = (Interval.start itv, Interval.stop itv)

let allocate (t : Spill_everywhere.t) =
  let regidx = t.regidx and lifetimes = t.lifetimes in
  let ntemps = Func.temp_bound t.func in
  let tname = Lifetime.temp_name lifetimes and tr = Spill_everywhere.emit t in
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
        ignore (Spill_everywhere.slot t id)
      in
      let assign id ri s e =
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
          | ri :: _ -> assign id ri s e
          | [] -> (
            (* spill the furthest endpoint among active ∪ {current} *)
            match List.rev !active with
            | (e', id', ri') :: _ when e' > e && not (busy_conflict ri' s e)
              ->
              spill id';
              active :=
                List.filter (fun (_, i, _) -> i <> id') !active;
              assign id ri' s e
            | _ -> spill id))
        items)
    Rclass.all

let run ?trace ~liveness machine func =
  Trace.emit_fn trace func;
  let t = Spill_everywhere.create trace liveness machine func in
  allocate t;
  (* The [nth] spilled operand of an instruction uses reserved register
     [nth mod n_reserved], counted from the top of its class. *)
  let reserved tp _pos nth =
    let all = Machine.regs machine (Temp.cls tp) in
    List.nth all (List.length all - 1 - (nth mod n_reserved))
  in
  Spill_everywhere.rewrite t ~scratch:reserved;
  t.stats
