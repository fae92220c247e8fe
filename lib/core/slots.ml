open Lsra_ir
open Lsra_analysis

(* Frame compaction: an extension pass that renumbers spill slots so that
   slots with disjoint live ranges share one frame word, shrinking the
   frame the interpreter must provide. Slots behave like variables whose
   defs are spill stores and whose uses are spill loads, so this is a
   small liveness + interference-graph + greedy-coloring problem over
   slot indices. *)

let run ?trace func =
  let nslots = Func.n_slots func in
  if nslots <= 1 then 0
  else begin
    let cfg = Func.cfg func in
    let gen b =
      let use = Bitset.create nslots in
      let def = Bitset.create nslots in
      Array.iter
        (fun i ->
          match Instr.desc i with
          | Instr.Spill_load { slot; _ } ->
            if not (Bitset.mem def slot) then Bitset.add use slot
          | Instr.Spill_store { slot; _ } -> Bitset.add def slot
          | _ -> ())
        (Block.body b);
      use
    in
    let kill b =
      let def = Bitset.create nslots in
      Array.iter
        (fun i ->
          match Instr.desc i with
          | Instr.Spill_store { slot; _ } -> Bitset.add def slot
          | _ -> ())
        (Block.body b);
      def
    in
    let r =
      let blocks = Cfg.blocks cfg in
      Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
        ~width:nslots
        ~gen:(fun i -> gen blocks.(i))
        ~kill:(fun i -> kill blocks.(i))
        ()
    in
    (* Interference: at each store, the stored slot conflicts with every
       other slot live just after it (backward scan per block). *)
    let conflict = Array.make nslots [] in
    let add_edge a b =
      if a <> b then begin
        conflict.(a) <- b :: conflict.(a);
        conflict.(b) <- a :: conflict.(b)
      end
    in
    Array.iteri
      (fun bi b ->
        let live = Bitset.copy r.Dataflow.out_of.(bi) in
        let body = Block.body b in
        for k = Array.length body - 1 downto 0 do
          match Instr.desc body.(k) with
          | Instr.Spill_store { slot; _ } ->
            Bitset.iter (fun other -> add_edge slot other) live;
            Bitset.remove live slot
          | Instr.Spill_load { slot; _ } -> Bitset.add live slot
          | _ -> ()
        done)
      (Cfg.blocks cfg);
    (* Greedy first-fit coloring in slot order. *)
    let color = Array.make nslots (-1) in
    let max_color = ref (-1) in
    for s = 0 to nslots - 1 do
      let taken = List.filter_map (fun o -> if color.(o) >= 0 then Some color.(o) else None) conflict.(s) in
      let rec first c = if List.mem c taken then first (c + 1) else c in
      let c = first 0 in
      color.(s) <- c;
      if c > !max_color then max_color := c
    done;
    let saved = nslots - (!max_color + 1) in
    if saved > 0 then begin
      (match trace with
      | None -> ()
      | Some t ->
        Array.iteri
          (fun s c ->
            if c <> s then
              Trace.emit t
                (Trace.Slot_renumber
                   { fn = Func.name func; from_slot = s; to_slot = c }))
          color);
      Cfg.iter_blocks
        (fun b ->
          Block.set_body b
            (Array.map
               (fun i ->
                 match Instr.desc i with
                 | Instr.Spill_load { dst; slot } ->
                   Instr.with_desc i
                     (Instr.Spill_load { dst; slot = color.(slot) })
                 | Instr.Spill_store { src; slot } ->
                   Instr.with_desc i
                     (Instr.Spill_store { src; slot = color.(slot) })
                 | _ -> i)
               (Block.body b)))
        cfg;
      Func.set_slot_count func (!max_color + 1)
    end;
    saved
  end
