(* The list-based lifetime construction that [Lsra.Lifetime.compute]'s
   arena path replaced, kept as its structural reference (the lifetime
   tests compare the two on random programs), as verify_ref.ml keeps the
   dense verifier. It reads operands through the list forms and returns
   plain arrays: per temporary id its segments and references, per
   register index its busy segments. Do not optimise this: its value is
   being the obviously-correct original. *)

open Lsra_ir
open Lsra_analysis
module Interval = Lsra.Interval
module Linear = Lsra.Linear
module Regidx = Lsra.Regidx

type ref_point = { rpos : int; rkind : Interval.ref_kind; rdepth : int }

type t = {
  segs : Interval.seg array array;  (* per temp id *)
  refs : ref_point array array;  (* per temp id *)
  reg_busy : Interval.seg array array;  (* per register index *)
}

(* An interval read back through its index accessors, in this form. *)
let segs_of itv =
  Array.init (Interval.n_segs itv) (fun i ->
      { Interval.s = Interval.seg_start itv i; e = Interval.seg_end itv i })

let refs_of itv =
  Array.init (Interval.n_refs itv) (fun i ->
      {
        rpos = Interval.ref_pos_at itv i;
        rkind = Interval.ref_kind_at itv i;
        rdepth = Interval.ref_depth_at itv i;
      })

(* The gaps between consecutive segments. *)
let holes_of itv =
  Array.init
    (max 0 (Interval.n_segs itv - 1))
    (fun i ->
      {
        Interval.s = Interval.seg_end itv i + 1;
        e = Interval.seg_start itv (i + 1) - 1;
      })

(* Segments sorted, disjoint and non-touching; references sorted by
   position. *)
let sorted_disjoint segs =
  Array.iteri
    (fun i { Interval.s; e } ->
      assert (s <= e);
      if i > 0 then assert (segs.(i - 1).Interval.e < s))
    segs

let sorted_by_position refs =
  Array.iteri (fun i r -> if i > 0 then assert (refs.(i - 1).rpos <= r.rpos)) refs

let compute regidx func liveness loops =
  let iter_temps f locs =
    List.iter (function Loc.Temp t -> f t | Loc.Reg _ -> ()) locs
  in
  let iter_regs f locs =
    List.iter (function Loc.Reg r -> f r | Loc.Temp _ -> ()) locs
  in
  let linear = Linear.number func in
  let cfg = Func.cfg func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let ntemps = Func.temp_bound func in
  let nregs = Regidx.total regidx in
  let block_depth = Array.init nb (fun i -> Loop.depth loops i) in

  (* Per-temp open segment end (-1 = closed) and collected segments in
     decreasing order. *)
  let open_end = Array.make ntemps (-1) in
  let segs : Interval.seg list array = Array.make ntemps [] in
  let reg_open = Array.make nregs (-1) in
  let reg_segs : Interval.seg list array = Array.make nregs [] in

  let close_temp id spos =
    if open_end.(id) >= 0 then begin
      segs.(id) <- { Interval.s = spos; e = open_end.(id) } :: segs.(id);
      open_end.(id) <- -1
    end
  in
  let close_reg ri spos =
    if reg_open.(ri) >= 0 then begin
      reg_segs.(ri) <- { Interval.s = spos; e = reg_open.(ri) } :: reg_segs.(ri);
      reg_open.(ri) <- -1
    end
  in

  for bi = nb - 1 downto 0 do
    let b = blocks.(bi) in
    let bottom = Linear.block_bottom linear bi in
    let opened = ref [] in
    Bitset.iter
      (fun id ->
        open_end.(id) <- bottom;
        opened := id :: !opened)
      (Liveness.live_out liveness bi);
    let body = Block.body b in
    let nbody = Array.length body in
    let last = Linear.last_instr linear bi in
    let step k (defs : Loc.t list) (uses : Loc.t list) =
      let dp = Linear.def_pos k and up = Linear.use_pos k in
      iter_temps
        (fun tp ->
          let id = Temp.id tp in
          if open_end.(id) >= 0 then close_temp id dp
          else segs.(id) <- { Interval.s = dp; e = dp } :: segs.(id))
        defs;
      iter_regs
        (fun r ->
          let ri = Regidx.of_reg regidx r in
          if reg_open.(ri) >= 0 then close_reg ri dp
          else reg_segs.(ri) <- { Interval.s = dp; e = dp } :: reg_segs.(ri))
        defs;
      iter_temps
        (fun tp ->
          let id = Temp.id tp in
          if open_end.(id) < 0 then begin
            open_end.(id) <- up;
            opened := id :: !opened
          end)
        uses;
      iter_regs
        (fun r ->
          let ri = Regidx.of_reg regidx r in
          if reg_open.(ri) < 0 then reg_open.(ri) <- up)
        uses
    in
    step last [] (Helpers.term_uses b);
    for j = nbody - 1 downto 0 do
      let k = Linear.first_instr linear bi + j in
      step k (Helpers.defs body.(j)) (Helpers.uses body.(j))
    done;
    let top = Linear.block_top linear bi in
    List.iter (fun id -> close_temp id top) !opened;
    for ri = 0 to nregs - 1 do
      close_reg ri top
    done
  done;

  (* Reference points, gathered forward. Two passes — count, then fill
     exact-size arrays — so no per-reference list cells are built. *)
  let n_refs = Array.make ntemps 0 in
  let each_ref f =
    Array.iteri
      (fun bi b ->
        let depth = block_depth.(bi) in
        let note k kind locs =
          iter_temps (fun tp -> f (Temp.id tp) k kind depth) locs
        in
        Array.iteri
          (fun j i ->
            let k = Linear.first_instr linear bi + j in
            note k Interval.Read (Helpers.uses i);
            note k Interval.Write (Helpers.defs i))
          (Block.body b);
        note (Linear.last_instr linear bi) Interval.Read (Helpers.term_uses b))
      blocks
  in
  each_ref (fun id _ _ _ -> n_refs.(id) <- n_refs.(id) + 1);
  let dummy = { rpos = 0; rkind = Interval.Read; rdepth = 0 } in
  let refs =
    Array.init ntemps (fun id -> Array.make n_refs.(id) dummy)
  in
  let fill = Array.make ntemps 0 in
  each_ref (fun id k kind depth ->
      let rpos =
        match kind with
        | Interval.Read -> Linear.use_pos k
        | Interval.Write -> Linear.def_pos k
      in
      refs.(id).(fill.(id)) <- { rpos; rkind = kind; rdepth = depth };
      fill.(id) <- fill.(id) + 1);

  let merge_segments l =
    let sorted = l in
    let rec go acc = function
      | [] -> List.rev acc
      | seg :: rest -> (
        match acc with
        | { Interval.s; e } :: acc' when seg.Interval.s <= e + 1 ->
          go ({ Interval.s; e = max e seg.Interval.e } :: acc') rest
        | _ -> go (seg :: acc) rest)
    in
    go [] sorted
  in
  let segs = Array.map (fun l -> Array.of_list (merge_segments l)) segs in
  let reg_busy = Array.map (fun l -> Array.of_list (merge_segments l)) reg_segs in
  Array.iter sorted_disjoint segs;
  Array.iter sorted_by_position refs;
  { segs; refs; reg_busy }
