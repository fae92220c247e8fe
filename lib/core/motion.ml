open Lsra_ir

(* The paper's §2.4 "alternative solution": a cleanup pass over allocated
   code that lets spill stores meet subsequent reloads. Where a spill
   store to slot S is followed in the same block by a reload from S —
   with neither the stored register nor the slot disturbed in between —
   the reload becomes a register move (which the peephole pass deletes
   when source and destination coincide). A final sweep removes stores to
   slots that are never read anywhere in the function. *)

let writes_reg (i : Instr.t) r =
  List.exists
    (fun (l : Loc.t) ->
      match l with Loc.Reg r' -> Mreg.equal r r' | Loc.Temp _ -> false)
    (Instr.defs i)

let forward_in_block body =
  (* available: slot -> register whose value the slot currently mirrors *)
  let available : (int, Mreg.t) Hashtbl.t = Hashtbl.create 8 in
  let changed = ref 0 in
  let out =
    Array.map
      (fun i ->
        let i' =
          match Instr.desc i with
          | Instr.Spill_load { dst = Loc.Reg rd; slot } -> (
            match Hashtbl.find_opt available slot with
            | Some rs ->
              incr changed;
              Instr.with_tag
                (Instr.with_desc i
                   (Instr.Move
                      { dst = Loc.Reg rd; src = Operand.Loc (Loc.Reg rs) }))
                (Instr.Spill { phase = Instr.Resolve; kind = Instr.Spill_mv })
            | None -> i)
          | _ -> i
        in
        (* transfer: kill slots mirroring any overwritten register (call
           clobbers included, via Instr.defs), then record the new
           store/load fact *)
        Hashtbl.iter
          (fun slot r ->
            if writes_reg i' r then Hashtbl.remove available slot)
          (Hashtbl.copy available);
        (match Instr.desc i' with
        | Instr.Spill_store { src = Loc.Reg rs; slot } ->
          Hashtbl.replace available slot rs
        | Instr.Spill_load { dst = Loc.Reg rd; slot } ->
          Hashtbl.replace available slot rd
        | Instr.Spill_store _ | Instr.Spill_load _ | Instr.Move _
        | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
        | Instr.Store _ | Instr.Call _ | Instr.Nop ->
          ());
        i')
      body
  in
  (out, !changed)

let dead_store_sweep func =
  (* slots read anywhere (conservative: any Spill_load) *)
  let read = Hashtbl.create 16 in
  Func.iter_instrs func (fun i ->
      match Instr.desc i with
      | Instr.Spill_load { slot; _ } -> Hashtbl.replace read slot ()
      | _ -> ());
  let removed = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let keep =
        Array.to_list (Block.body b)
        |> List.filter (fun i ->
               match Instr.desc i with
               | Instr.Spill_store { slot; _ } when not (Hashtbl.mem read slot)
                 ->
                 incr removed;
                 false
               | _ -> true)
      in
      if List.length keep <> Array.length (Block.body b) then
        Block.set_body b (Array.of_list keep))
    (Func.cfg func);
  !removed

let run func =
  let rewritten = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let body', n = forward_in_block (Block.body b) in
      if n > 0 then begin
        rewritten := !rewritten + n;
        Block.set_body b body'
      end)
    (Func.cfg func);
  let removed = dead_store_sweep func in
  !rewritten + removed
