open Lsra_ir

(* Block-local copy propagation: within a block, after [x := y], uses of
   [x] read [y] directly until either is redefined. Combined with DCE this
   removes most of the copies a naive frontend emits — the cleanup a real
   compiler performs long before register allocation (the paper's SUIF
   input had it), and without which a move-coalescing allocator gets an
   artificial advantage.

   Machine-register operands are never propagated (their values are
   clobbered by conventions the pass does not model). *)

let run func =
  let rewritten = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let copy_of : (int, Temp.t) Hashtbl.t = Hashtbl.create 8 in
      let resolve t =
        match Hashtbl.find_opt copy_of (Temp.id t) with
        | Some u -> u
        | None -> t
      in
      let kill d =
        (* d is redefined: forget copies of d and copies through d *)
        Hashtbl.remove copy_of (Temp.id d);
        Hashtbl.iter
          (fun k v -> if Temp.equal v d then Hashtbl.remove copy_of k)
          (Hashtbl.copy copy_of)
      in
      let body' =
        Array.map
          (fun i ->
            let use (l : Loc.t) =
              match l with
              | Loc.Temp t ->
                let t' = resolve t in
                if not (Temp.equal t t') then incr rewritten;
                Loc.Temp t'
              | Loc.Reg _ -> l
            in
            let i' = Instr.rewrite ~use ~def:(fun l -> l) i in
            List.iter
              (fun (l : Loc.t) ->
                match l with Loc.Temp d -> kill d | Loc.Reg _ -> ())
              (Instr.defs i');
            (match Instr.desc i' with
            | Instr.Move { dst = Loc.Temp d; src = Operand.Loc (Loc.Temp s) }
              when not (Temp.equal d s) ->
              Hashtbl.replace copy_of (Temp.id d) s
            | _ -> ());
            i')
          (Block.body b)
      in
      Block.set_body b body';
      Block.rewrite_term b ~use:(fun l ->
          match l with
          | Loc.Temp t ->
            let t' = resolve t in
            if not (Temp.equal t t') then incr rewritten;
            Loc.Temp t'
          | Loc.Reg _ -> l))
    (Func.cfg func);
  !rewritten
