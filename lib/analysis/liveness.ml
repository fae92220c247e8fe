open Lsra_ir

type t = {
  width : int;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  cfg : Cfg.t;
}

(* Iterate the temp ids among [locs] without materialising an
   intermediate list: this runs once per instruction operand list, which
   makes it the allocation hot spot of the whole analysis. *)
let iter_temp_ids f locs =
  List.iter
    (fun l -> match Loc.as_temp l with Some t -> f (Temp.id t) | None -> ())
    locs

(* Upward-exposed uses and defs of one block over the rows [fwd] maps to
   ([fwd.(id)] is temp [id]'s row, -1 when the temp is not solved for). *)
let block_use_def ~width ~fwd b =
  let use = Bitset.create width in
  let def = Bitset.create width in
  let see_use id =
    let i = fwd.(id) in
    if i >= 0 && not (Bitset.mem def i) then Bitset.add use i
  in
  let see_def id =
    let i = fwd.(id) in
    if i >= 0 then Bitset.add def i
  in
  Array.iter
    (fun i ->
      iter_temp_ids see_use (Instr.uses i);
      iter_temp_ids see_def (Instr.defs i))
    (Block.body b);
  iter_temp_ids see_use (Block.term_uses b);
  (use, def)

(* The least fixed point of backward union liveness over [width] rows. *)
let solve_rows cfg ~fwd ~width =
  let use_def = Array.map (block_use_def ~width ~fwd) (Cfg.blocks cfg) in
  let gen b = fst use_def.(Cfg.block_index cfg (Block.label b)) in
  let kill b = snd use_def.(Cfg.block_index cfg (Block.label b)) in
  Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union ~width
    ~gen ~kill ()

(* Temps referenced in more than one block. As the paper notes (§3), temps
   live only within a single block cannot affect block-boundary liveness,
   so excluding them shrinks the bit vectors the iterative solver pushes
   around — the optimisation both of its allocators rely on. *)
let global_temps func =
  let ntemps = Func.temp_bound func in
  let first_block = Array.make ntemps (-1) in
  let global = Array.make ntemps false in
  let blocks = Cfg.blocks (Func.cfg func) in
  Array.iteri
    (fun bi b ->
      let see id =
        if first_block.(id) = -1 then first_block.(id) <- bi
        else if first_block.(id) <> bi then global.(id) <- true
      in
      Array.iter
        (fun i ->
          iter_temp_ids see (Instr.uses i);
          iter_temp_ids see (Instr.defs i))
        (Block.body b);
      iter_temp_ids see (Block.term_uses b))
    blocks;
  global

let compute ?(compress = true) func =
  let cfg = Func.cfg func in
  let ntemps = Func.temp_bound func in
  if not compress then begin
    let r = solve_rows cfg ~fwd:(Array.init ntemps Fun.id) ~width:ntemps in
    {
      width = ntemps;
      live_in = r.Dataflow.in_of;
      live_out = r.Dataflow.out_of;
      cfg;
    }
  end
  else begin
    let global = global_temps func in
    let fwd = Array.make ntemps (-1) in
    let n = ref 0 in
    Array.iteri
      (fun id g ->
        if g then begin
          fwd.(id) <- !n;
          incr n
        end)
      global;
    let rev = Array.make !n 0 in
    Array.iteri (fun id i -> if i >= 0 then rev.(i) <- id) fwd;
    let r = solve_rows cfg ~fwd ~width:!n in
    (* expand the compressed vectors back to full temp-id indexing so
       clients are oblivious to the optimisation *)
    let expand v =
      let s = Bitset.create ntemps in
      Bitset.iter (fun i -> Bitset.add s rev.(i)) v;
      s
    in
    {
      width = ntemps;
      live_in = Array.map expand r.Dataflow.in_of;
      live_out = Array.map expand r.Dataflow.out_of;
      cfg;
    }
  end

(* Liveness is separable by temp: each temp's row is the least fixed point
   of its own uses and defs. So re-solving only [rows] from empty, against
   the current bodies, and writing them over the old rows leaves [t] equal
   to a fresh [compute] whenever no other row can have changed. *)
let refresh t func rows =
  let k = Bitset.cardinal rows in
  let fwd = Array.make t.width (-1) in
  let rev = Array.make k 0 in
  let n = ref 0 in
  Bitset.iter
    (fun id ->
      fwd.(id) <- !n;
      rev.(!n) <- id;
      incr n)
    rows;
  let r = solve_rows (Func.cfg func) ~fwd ~width:k in
  let changed = ref false in
  let write dst src =
    for i = 0 to k - 1 do
      let id = rev.(i) in
      let now = Bitset.mem src i in
      if now <> Bitset.mem dst id then begin
        changed := true;
        if now then Bitset.add dst id else Bitset.remove dst id
      end
    done
  in
  Array.iteri (fun b v -> write t.live_in.(b) v) r.Dataflow.in_of;
  Array.iteri (fun b v -> write t.live_out.(b) v) r.Dataflow.out_of;
  !changed

let width t = t.width
let live_in t label = t.live_in.(Cfg.block_index t.cfg label)
let live_out t label = t.live_out.(Cfg.block_index t.cfg label)

let live_across_blocks t =
  let s = Bitset.create t.width in
  Array.iter (fun v -> ignore (Bitset.union_into ~dst:s ~src:v)) t.live_in;
  s

let fold_live_temps f t label acc = Bitset.fold f (live_in t label) acc
