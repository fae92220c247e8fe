open Lsra_ir
open Wutil

(* Stress workloads aimed at specific allocator machinery rather than any
   benchmark: register permutation cycles across back edges (the parallel
   move sequentialiser), deep lifetime holes, and call-dense regions. *)

(* [rotation ~n ~iters]: n values rotate one position per loop iteration,
   so the allocator tends to want a cyclic register permutation on the
   back edge — the worst case for resolution's parallel moves. *)
let rotation machine ~n ~iters =
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let vs = Array.init n (fun k -> itemp ~name:(Printf.sprintf "v%d" k) ctx) in
  Array.iteri (fun k v -> B.li b v ((k * 17) + 1)) vs;
  let _ =
    for_ ctx ~below:(ci iters) (fun _ ->
        (* rotate: t <- v0; v0 <- v1; ...; v_{n-1} <- t *)
        let t = itemp ctx in
        B.movet b t (ti vs.(0));
        for k = 0 to n - 2 do
          B.movet b vs.(k) (ti vs.(k + 1))
        done;
        B.movet b vs.(n - 1) (ti t);
        (* touch them all so none is coalesced away *)
        B.bin b Instr.Add vs.(0) (ti vs.(0)) (ci 1))
  in
  let h = itemp ~name:"h" ctx in
  B.li b h 0;
  Array.iter
    (fun v ->
      B.bin b Instr.Mul h (ti h) (ci 31);
      B.bin b Instr.Xor h (ti h) (ti v))
    vs;
  puti ctx (ti h);
  return_int ctx (ti h);
  let f = finish ctx in
  Program.create ~main:"main" [ ("main", f) ]

(* [holes ~n ~iters]: values with long lifetime holes — defined, dormant
   through a pressure region, then reborn — exercising hole-aware
   placement in both binpacking allocators. *)
let holes machine ~n ~iters =
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let cold = Array.init n (fun k -> itemp ~name:(Printf.sprintf "c%d" k) ctx) in
  Array.iteri (fun k v -> B.li b v k) cold;
  let acc = itemp ~name:"acc" ctx in
  B.li b acc 0;
  let _ =
    for_ ctx ~below:(ci iters) (fun it ->
        (* pressure region referencing none of the cold values *)
        let hot = Array.init (n + 2) (fun _ -> itemp ctx) in
        Array.iteri
          (fun k h ->
            B.bin b Instr.Add h (ti it) (ci k);
            B.bin b Instr.Xor h (ti h) (ti acc))
          hot;
        Array.iter (fun h -> B.bin b Instr.Add acc (ti acc) (ti h)) hot;
        (* every cold value is overwritten before use: its old value was
           in a hole throughout the pressure region *)
        Array.iteri
          (fun k v ->
            B.bin b Instr.Add v (ti acc) (ci k);
            B.bin b Instr.Xor acc (ti acc) (ti v))
          cold)
  in
  puti ctx (ti acc);
  return_int ctx (ti acc);
  let f = finish ctx in
  Program.create ~main:"main" [ ("main", f) ]

(* [call_storm ~n ~iters]: alternating calls and uses so that
   caller-saved eviction, early second chance and resolution interact
   every few instructions. *)
let call_storm machine ~n ~iters =
  let ctx = create ~name:"main" machine in
  let b = ctx.b in
  B.start_block b "entry";
  let vs = Array.init n (fun k -> itemp ~name:(Printf.sprintf "s%d" k) ctx) in
  Array.iteri (fun k v -> B.li b v (k + 1)) vs;
  let _ =
    for_ ctx ~below:(ci iters) (fun _ ->
        Array.iteri
          (fun k v ->
            let c = itemp ctx in
            getc ctx c;
            B.bin b Instr.Add v (ti v) (ti c);
            if k > 0 then B.bin b Instr.Xor v (ti v) (ti vs.(k - 1)))
          vs)
  in
  let h = itemp ~name:"h" ctx in
  B.li b h 0;
  Array.iter (fun v -> B.bin b Instr.Add h (ti h) (ti v)) vs;
  puti ctx (ti h);
  return_int ctx (ti h);
  let f = finish ctx in
  Program.create ~main:"main" [ ("main", f) ]
