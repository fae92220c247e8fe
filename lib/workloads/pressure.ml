open Lsra_ir
open Wutil

(* Compile-time workload for Table 3: modules whose functions carry a
   controlled number of register candidates with a controlled interference
   density. Temporaries are defined in a long pipeline and used [window]
   steps later, so roughly [window] values are live at every point and the
   interference graph has about [candidates * window] edges — the knob the
   paper's cvrin/twldrv/fpppp progression turns. *)

let proc ?(clique = 0) ?(clique_every = 500) machine ~name ~candidates
    ~window =
  let ctx = create ~name machine in
  let b = ctx.b in
  B.start_block b "entry";
  let temps = Array.init candidates (fun _ -> itemp ctx) in
  (* prime the first window *)
  for k = 0 to min window candidates - 1 do
    B.li b temps.(k) (k + 1)
  done;
  let block_len = 60 in
  (* Hot cliques: every [clique_every] steps, [clique] of the upcoming
     temps are defined together and consumed together, taking the local
     pressure past the register file. These are what force the coloring
     allocator into spill-and-rebuild iterations on the big modules. *)
  let in_clique = Hashtbl.create 16 in
  if clique > 0 then begin
    let k = ref (window + clique_every) in
    while !k + clique < candidates do
      for j = !k to !k + clique - 1 do
        Hashtbl.replace in_clique j (!k, !k + clique - 1)
      done;
      k := !k + clique_every
    done
  end;
  for k = window to candidates - 1 do
    match Hashtbl.find_opt in_clique k with
    | Some (lo, hi) when k = lo ->
      (* define the whole clique, then fold it pairwise so every member
         stays live to the end of the region *)
      for j = lo to hi do
        B.bin b Instr.Add temps.(j)
          (ti temps.(j - window))
          (ci (j - lo + 1))
      done;
      for j = lo to hi do
        B.bin b Instr.Xor temps.(j) (ti temps.(j))
          (ti temps.(lo + ((j - lo + 1) mod clique)))
      done
    | Some _ -> () (* handled at the clique head *)
    | None ->
    (* def temps.(k) from values [window] back; every [block_len] steps a
       branch breaks the block, as real code would *)
      B.bin b Instr.Add temps.(k)
        (ti temps.(k - window))
        (ti temps.(k - (window / 2) - 1));
      B.bin b Instr.Xor temps.(k) (ti temps.(k)) (ci k);
      if k mod block_len = 0 then begin
        let cont = label ctx "cont" in
        let odd = label ctx "odd" in
        let join = label ctx "join" in
        B.branch b Instr.Lt (ti temps.(k)) (ci 0) ~ifso:odd ~ifnot:cont;
        B.start_block b odd;
        B.bin b Instr.Add temps.(k) (ti temps.(k)) (ci 1);
        B.jump b join;
        B.start_block b cont;
        B.bin b Instr.Xor temps.(k) (ti temps.(k)) (ci 1);
        B.jump b join;
        B.start_block b join
      end
  done;
  (* consume the last window so nothing is dead *)
  let h = itemp ctx in
  B.li b h 0;
  for k = max 0 (candidates - window) to candidates - 1 do
    B.bin b Instr.Add h (ti h) (ti temps.(k))
  done;
  return_int ctx (ti h);
  finish ctx

type shape = {
  sname : string;
  procs : int;
  candidates : int;
  window : int;
  clique : int;
}

(* Shapes matched to the paper's Table 3 modules: average candidates per
   procedure and edges-per-candidate (≈ window) rise together. *)
let cvrin =
  { sname = "cvrin"; procs = 6; candidates = 245; window = 5; clique = 0 }

let twldrv =
  { sname = "twldrv"; procs = 2; candidates = 6218; window = 9; clique = 40 }

let fpppp =
  { sname = "fpppp"; procs = 2; candidates = 6697; window = 16; clique = 48 }

let build machine shape =
  let funcs =
    List.init shape.procs (fun i ->
        let name = Printf.sprintf "%s_%d" shape.sname i in
        ( name,
          proc machine ~name ~candidates:shape.candidates
            ~window:shape.window ~clique:shape.clique ))
  in
  match funcs with
  | (first, _) :: _ -> Program.create ~main:first funcs
  | [] -> invalid_arg "Pressure.build: no procs"

let scaled ~candidates ~window machine =
  Program.create ~main:"p0"
    [ ("p0", proc machine ~name:"p0" ~candidates ~window) ]
