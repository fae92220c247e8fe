open Lsra_ir

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
  | Point of int * int (* temp id, position *)

let item_start lifetimes = function
  | Whole id ->
    let itv = Lifetime.interval_of_id lifetimes id in
    Interval.start itv
  | Point (_, pos) -> pos

(* Occupancy of one register: disjoint segments already committed (busy
   conventions plus assigned lifetimes), with their owners. *)
type occupant = Convention | Owned of int | Pointed
type occ_seg = { os : int; oe : int; owner : occupant }

type regstate = { mutable occ : occ_seg list (* sorted by os *) }

let overlaps a_s a_e b_s b_e = a_s <= b_e && b_s <= a_e

(* Sorted, disjoint segments read by index: a lifetime's, a register's
   busy segments, or the single position of a point lifetime. *)
type segs = { n : int; s : int -> int; e : int -> int }

let of_interval itv =
  {
    n = Interval.n_segs itv;
    s = Interval.seg_start itv;
    e = Interval.seg_end itv;
  }

let of_busy busy =
  {
    n = Array.length busy;
    s = (fun i -> busy.(i).Interval.s);
    e = (fun i -> busy.(i).e);
  }

let point pos = { n = 1; s = (fun _ -> pos); e = (fun _ -> pos) }

let conflicts rs segs =
  let hits o =
    let rec from i =
      i < segs.n && (overlaps o.os o.oe (segs.s i) (segs.e i) || from (i + 1))
    in
    from 0
  in
  List.filter hits rs.occ

let insert_segs rs segs ~owner =
  let extra =
    List.init segs.n (fun i -> { os = segs.s i; oe = segs.e i; owner })
  in
  rs.occ <- List.merge (fun a b -> Int.compare a.os b.os) rs.occ extra

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

let priority itv =
  let len =
    float_of_int (max 1 (Interval.stop itv - Interval.start itv + 1))
  in
  let w = ref 0.0 in
  for i = 0 to Interval.n_refs itv - 1 do
    w := !w +. (10.0 ** float_of_int (Interval.ref_depth_at itv i))
  done;
  !w /. len

let allocate (t : Spill_everywhere.t) =
  let regidx = t.regidx and lifetimes = t.lifetimes in
  let ntemps = Func.temp_bound t.func in
  let nregs = Regidx.total regidx in
  let regs = Array.init nregs (fun _ -> { occ = [] }) in
  for ri = 0 to nregs - 1 do
    insert_segs regs.(ri)
      (of_busy (Lifetime.reg_busy lifetimes ri))
      ~owner:Convention
  done;
  (* (temp, pos) -> register, for references of memory-resident temps *)
  let point_reg = Hashtbl.create 16 in
  let tname = Lifetime.temp_name lifetimes in
  let tr = Spill_everywhere.emit t in
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
    t.assignment.(id) <- None;
    ignore (Spill_everywhere.slot t id);
    let itv = Lifetime.interval_of_id lifetimes id in
    for i = 0 to Interval.n_refs itv - 1 do
      push (Point (id, Interval.ref_pos_at itv i))
    done
  in
  let try_fit segs cand_regs =
    match List.filter (fun ri -> conflicts regs.(ri) segs = []) cand_regs with
    | [] -> None
    | hd :: tl ->
      (* smallest containing gap *)
      let gap ri =
        let lo, hi = gap_around regs.(ri) (segs.s 0) in
        hi - lo
      in
      let best, _ =
        List.fold_left
          (fun (bri, bg) ri ->
            let g = gap ri in
            if g < bg then (ri, g) else (bri, bg))
          (hd, gap hd) tl
      in
      Some best
  in
  let rec place item =
    match item with
    | Whole id -> (
      let itv = Lifetime.interval_of_id lifetimes id in
      let segs = of_interval itv in
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
        spill_to_memory id)
    | Point (id, pos) -> (
      let segs = point pos in
      let cand = Regidx.of_cls regidx (cls_of id) in
      match try_fit segs cand with
      | Some ri ->
        insert_segs regs.(ri) segs ~owner:Pointed;
        Hashtbl.replace point_reg (id, pos) (Regidx.to_reg regidx ri);
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
  point_reg

let run ?trace ~liveness machine func =
  Trace.emit_fn trace func;
  let t = Spill_everywhere.create trace liveness machine func in
  let point_reg = allocate t in
  (* Second pass: each reference of a memory-resident temporary uses the
     register its point lifetime received in the first. *)
  Spill_everywhere.rewrite t ~scratch:(fun tp pos _ ->
      match Hashtbl.find_opt point_reg (Temp.id tp, pos) with
      | Some r -> r
      | None -> raise (Out_of_registers "missing point register"));
  t.stats
