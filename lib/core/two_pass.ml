open Lsra_ir
open Lsra_analysis

(* Traditional two-pass binpacking (paper §3.1's comparison baseline, after
   DEC GEM): the first pass walks lifetimes in start order and commits each
   whole lifetime to a register or to memory — exploiting lifetime holes,
   but never splitting a lifetime, so a temporary live across a call can
   never use a caller-saved register. The second pass rewrites the code;
   references to memory-resident temporaries become point lifetimes that
   received their own (register) assignment during the first pass. *)

exception Out_of_registers of string

type item =
  | Whole of int (* temp id *)
  | Point of int * int * Interval.ref_kind (* temp id, position, kind *)

let item_start lifetimes = function
  | Whole id ->
    let itv = Lifetime.interval_of_id lifetimes id in
    Interval.start itv
  | Point (_, pos, _) -> pos

(* Occupancy of one register: disjoint segments already committed (busy
   conventions plus assigned lifetimes), with their owners. *)
type occupant = Convention | Owned of int | Pointed
type occ_seg = { os : int; oe : int; owner : occupant }

type regstate = { mutable occ : occ_seg list (* sorted by os *) }

let overlaps a_s a_e b_s b_e = a_s <= b_e && b_s <= a_e

let conflicts rs segs =
  List.filter
    (fun o ->
      List.exists (fun { Interval.s; e } -> overlaps o.os o.oe s e) segs)
    rs.occ

let insert_segs rs segs ~owner =
  let extra =
    List.map (fun { Interval.s; e } -> { os = s; oe = e; owner }) segs
  in
  rs.occ <- List.merge (fun a b -> Int.compare a.os b.os) rs.occ
      (List.sort (fun a b -> Int.compare a.os b.os) extra)

let remove_owner rs id =
  rs.occ <-
    List.filter
      (fun o -> match o.owner with Owned i -> i <> id | Convention | Pointed -> true)
      rs.occ

(* Size of the free gap containing [pos] (paper's smallest-sufficient-hole
   heuristic applied to whole lifetimes). *)
let gap_around rs pos =
  let rec go lo = function
    | [] -> (lo, max_int)
    | o :: rest ->
      if o.oe < pos then go (max lo (o.oe + 1)) rest
      else if o.os > pos then (lo, o.os - 1)
      else (pos, pos) (* occupied: callers only use this on free regs *)
  in
  go min_int rs.occ

type t = {
  func : Func.t;
  regidx : Regidx.t;
  lifetimes : Lifetime.t;
  assignment : Mreg.t option array; (* per temp id; None = memory *)
  point_reg : (int * int, Mreg.t) Hashtbl.t; (* (temp, pos) -> register *)
  slot_of : int option array;
  stats : Stats.t;
  trace : Trace.t option;
}

let priority itv =
  let len =
    float_of_int (max 1 (Interval.stop itv - Interval.start itv + 1))
  in
  let w = ref 0.0 in
  for i = 0 to Interval.n_refs itv - 1 do
    w := !w +. (10.0 ** float_of_int (Interval.ref_depth_at itv i))
  done;
  !w /. len

let allocate ?trace ?liveness machine func =
  let regidx = Regidx.create machine in
  let liveness =
    match liveness with Some l -> l | None -> Liveness.compute func
  in
  let loops = Loop.compute (Func.cfg func) in
  let lifetimes = Lifetime.compute regidx func liveness loops in
  let ntemps = Func.temp_bound func in
  let nregs = Regidx.total regidx in
  let regs = Array.init nregs (fun _ -> { occ = [] }) in
  for ri = 0 to nregs - 1 do
    insert_segs regs.(ri)
      (Array.to_list (Lifetime.reg_busy lifetimes ri))
      ~owner:Convention
  done;
  let t =
    {
      func;
      regidx;
      lifetimes;
      assignment = Array.make ntemps None;
      point_reg = Hashtbl.create 16;
      slot_of = Array.make ntemps None;
      stats = Stats.create ();
      trace;
    }
  in
  let tname id =
    Temp.to_string (Interval.temp (Lifetime.interval_of_id lifetimes id))
  in
  let tr ev = match trace with None -> () | Some t -> Trace.emit t ev in
  (* Worklist ordered by start position; spilling inserts point items. *)
  let module Q = Set.Make (struct
    type nonrec t = int * int * item (* start, tiebreak, item *)

    let compare (a, i, _) (b, j, _) =
      match Int.compare a b with 0 -> Int.compare i j | c -> c
  end) in
  let tie = ref 0 in
  let queue = ref Q.empty in
  let push item =
    incr tie;
    queue := Q.add (item_start lifetimes item, !tie, item) !queue
  in
  for id = 0 to ntemps - 1 do
    let itv = Lifetime.interval_of_id lifetimes id in
    if not (Interval.is_empty itv) then push (Whole id)
  done;
  let cls_of id = Temp.cls (Interval.temp (Lifetime.interval_of_id lifetimes id)) in
  let spill_to_memory id =
    t.assignment.(Temp.id (Interval.temp (Lifetime.interval_of_id lifetimes id))) <- None;
    (match t.slot_of.(id) with
    | Some _ -> ()
    | None ->
      let s = Func.fresh_slot func in
      t.slot_of.(id) <- Some s;
      tr (Trace.Slot_alloc { temp = tname id; id; slot = s }));
    let itv = Lifetime.interval_of_id lifetimes id in
    for i = 0 to Interval.n_refs itv - 1 do
      push
        (Point (id, Interval.ref_pos_at itv i, Interval.ref_kind_at itv i))
    done
  in
  let try_fit segs cand_regs =
    let fitting =
      List.filter (fun ri -> conflicts regs.(ri) segs = []) cand_regs
    in
    match fitting, segs with
    | [], _ -> None
    | _, [] -> None
    | _, { Interval.s; _ } :: _ ->
      (* smallest containing gap *)
      let scored =
        List.map
          (fun ri ->
            let lo, hi = gap_around regs.(ri) s in
            (ri, hi - lo))
          fitting
      in
      let best =
        List.fold_left
          (fun (bri, bg) (ri, g) -> if g < bg then (ri, g) else (bri, bg))
          (List.hd scored) (List.tl scored)
      in
      Some (fst best)
  in
  let rec place item =
    match item with
    | Whole id -> (
      let itv = Lifetime.interval_of_id lifetimes id in
      let segs = Interval.segs itv in
      let cand = Regidx.of_cls regidx (cls_of id) in
      match try_fit segs cand with
      | Some ri ->
        insert_segs regs.(ri) segs ~owner:(Owned id);
        t.assignment.(id) <- Some (Regidx.to_reg regidx ri);
        tr
          (Trace.Assign
             {
               temp = tname id;
               id;
               pos = Interval.start itv;
               reg = Regidx.to_reg regidx ri;
               reason = Trace.Whole;
               hole_end = max_int;
             })
      | None ->
        (* Traditional first-come-first-served binpacking: a candidate
           that fits nowhere lives in memory for its whole lifetime; the
           earlier-starting lifetimes keep their registers. This is what
           makes cold early lifetimes crowd hot counters out of the
           callee-saved file in the paper's wc experiment. *)
        ignore (priority itv);
        spill_to_memory id)
    | Point (id, pos, _) -> (
      let segs = [ { Interval.s = pos; e = pos } ] in
      let cand = Regidx.of_cls regidx (cls_of id) in
      match try_fit segs cand with
      | Some ri ->
        insert_segs regs.(ri) segs ~owner:Pointed;
        Hashtbl.replace t.point_reg (id, pos) (Regidx.to_reg regidx ri);
        tr
          (Trace.Assign
             {
               temp = tname id;
               id;
               pos;
               reg = Regidx.to_reg regidx ri;
               reason = Trace.Point;
               hole_end = max_int;
             })
      | None -> (
        (* Free a register by sending one whole-lifetime occupant to
           memory. *)
        let victims =
          List.filter_map
            (fun ri ->
              match conflicts regs.(ri) segs with
              | [ { owner = Owned u; _ } ] ->
                Some (ri, u, priority (Lifetime.interval_of_id lifetimes u))
              | _ -> None)
            cand
        in
        match victims with
        | [] ->
          raise
            (Out_of_registers
               (Printf.sprintf
                  "two-pass: no register for a point lifetime at %d" pos))
        | hd :: tl ->
          let ri, u, _ =
            List.fold_left
              (fun (bri, bu, bp) (ri, u, p) ->
                if p < bp then (ri, u, p) else (bri, bu, bp))
              hd tl
          in
          remove_owner regs.(ri) u;
          spill_to_memory u;
          place item))
  in
  let rec drain () =
    match Q.min_elt_opt !queue with
    | None -> ()
    | Some ((_, _, item) as elt) ->
      queue := Q.remove elt !queue;
      place item;
      drain ()
  in
  drain ();
  t

(* Second pass: rewrite every reference according to the whole-lifetime
   assignment, inserting a load before each read and a store after each
   write of a memory-resident temporary. *)
let rewrite t =
  let func = t.func in
  let lifetimes = t.lifetimes in
  let linear = Lifetime.linear lifetimes in
  let stats = t.stats in
  let tname id =
    Temp.to_string (Interval.temp (Lifetime.interval_of_id lifetimes id))
  in
  let tr ev = match t.trace with None -> () | Some sink -> Trace.emit sink ev in
  let slot id =
    match t.slot_of.(id) with
    | Some s -> s
    | None ->
      let s = Func.fresh_slot func in
      t.slot_of.(id) <- Some s;
      tr (Trace.Slot_alloc { temp = tname id; id; slot = s });
      s
  in
  let spill_tag kind = Instr.Spill { phase = Instr.Evict; kind } in
  let cfg = Func.cfg func in
  let blocks = Cfg.blocks cfg in
  Array.iteri
    (fun bi b ->
      let out = ref [] in
      let emit i = out := i :: !out in
      let rewrite_instr k i =
        let loads = ref [] and stores = ref [] in
        let use (l : Loc.t) =
          match l with
          | Loc.Reg _ -> l
          | Loc.Temp tp -> (
            let id = Temp.id tp in
            match t.assignment.(id) with
            | Some r -> Loc.Reg r
            | None ->
              let pos = Linear.use_pos k in
              let r =
                match Hashtbl.find_opt t.point_reg (id, pos) with
                | Some r -> r
                | None -> raise (Out_of_registers "missing point register")
              in
              let sl = slot id in
              loads :=
                Instr.make ~tag:(spill_tag Instr.Spill_ld)
                  (Instr.Spill_load { dst = Loc.Reg r; slot = sl })
                :: !loads;
              stats.Stats.evict_loads <- stats.Stats.evict_loads + 1;
              tr
                (Trace.Second_chance
                   { temp = tname id; id; pos; reg = Some r; slot = sl });
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
              let pos = Linear.def_pos k in
              let r =
                match Hashtbl.find_opt t.point_reg (id, pos) with
                | Some r -> r
                | None -> raise (Out_of_registers "missing point register")
              in
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
                     pos;
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
      Array.iteri
        (fun j i -> rewrite_instr (Linear.first_instr linear bi + j) i)
        (Block.body b);
      let tk = Linear.last_instr linear bi in
      Block.rewrite_term b ~use:(fun l ->
          match l with
          | Loc.Reg _ -> l
          | Loc.Temp tp -> (
            let id = Temp.id tp in
            match t.assignment.(id) with
            | Some r -> Loc.Reg r
            | None ->
              let pos = Linear.use_pos tk in
              let r =
                match Hashtbl.find_opt t.point_reg (id, pos) with
                | Some r -> r
                | None -> raise (Out_of_registers "missing point register")
              in
              let sl = slot id in
              emit
                (Instr.make ~tag:(spill_tag Instr.Spill_ld)
                   (Instr.Spill_load { dst = Loc.Reg r; slot = sl }));
              stats.Stats.evict_loads <- stats.Stats.evict_loads + 1;
              tr
                (Trace.Second_chance
                   { temp = tname id; id; pos; reg = Some r; slot = sl });
              Loc.Reg r));
      Block.set_body b (Array.of_list (List.rev !out)))
    blocks;
  stats.Stats.slots <- Func.n_slots func

let run ?trace ?liveness machine func =
  Trace.emit_fn trace func;
  let t = allocate ?trace ?liveness machine func in
  rewrite t;
  t.stats
