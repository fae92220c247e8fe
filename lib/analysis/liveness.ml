open Lsra_ir

type t = {
  width : int;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

let no_reg (_ : Mreg.t) = ()

(* Upward-exposed uses and defs of every block over the rows [fwd] maps
   to ([fwd.(id)] is temp [id]'s row, -1 when the temp is not solved
   for), by linear block index. The operand callbacks are built once and
   write into the current block's pair. *)
let use_def cfg ~width ~fwd =
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let uses = Array.init nb (fun _ -> Bitset.create width) in
  let defs = Array.init nb (fun _ -> Bitset.create width) in
  let use = ref uses.(0) and def = ref defs.(0) in
  let see_use t =
    let i = fwd.(Temp.id t) in
    if i >= 0 && not (Bitset.mem !def i) then Bitset.add !use i
  in
  let see_def t =
    let i = fwd.(Temp.id t) in
    if i >= 0 then Bitset.add !def i
  in
  for bi = 0 to nb - 1 do
    let b = blocks.(bi) in
    use := uses.(bi);
    def := defs.(bi);
    Array.iter
      (fun i ->
        Instr.iter_uses ~temp:see_use ~reg:no_reg i;
        Instr.iter_defs ~temp:see_def ~reg:no_reg i)
      (Block.body b);
    Block.iter_term_uses ~temp:see_use ~reg:no_reg b
  done;
  (uses, defs)

(* The least fixed point of backward union liveness over [width] rows. *)
let solve_rows cfg ~fwd ~width =
  let uses, defs = use_def cfg ~width ~fwd in
  Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union ~width
    ~gen:(Array.get uses) ~kill:(Array.get defs) ()

(* Temps referenced in more than one block. As the paper notes (§3), temps
   live only within a single block cannot affect block-boundary liveness,
   so excluding them shrinks the bit vectors the iterative solver pushes
   around — the optimisation both of its allocators rely on. *)
let global_temps func =
  let ntemps = Func.temp_bound func in
  let first_block = Array.make ntemps (-1) in
  let global = Array.make ntemps false in
  let blocks = Cfg.blocks (Func.cfg func) in
  let bi = ref 0 in
  let see t =
    let id = Temp.id t in
    if first_block.(id) = -1 then first_block.(id) <- !bi
    else if first_block.(id) <> !bi then global.(id) <- true
  in
  Array.iteri
    (fun k b ->
      bi := k;
      Array.iter
        (fun i ->
          Instr.iter_uses ~temp:see ~reg:no_reg i;
          Instr.iter_defs ~temp:see ~reg:no_reg i)
        (Block.body b);
      Block.iter_term_uses ~temp:see ~reg:no_reg b)
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
let live_in t bi = t.live_in.(bi)
let live_out t bi = t.live_out.(bi)

let live_across_blocks t =
  let s = Bitset.create t.width in
  Array.iter (fun v -> ignore (Bitset.union_into ~dst:s ~src:v)) t.live_in;
  s
