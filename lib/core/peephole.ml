open Lsra_ir

let is_self_move i =
  match Instr.is_move i with
  | Some (dst, src) -> Loc.equal dst src
  | None -> false

let run func =
  let removed = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let body = Block.body b in
      let kept =
        Array.to_list body
        |> List.filter (fun i ->
               if is_self_move i || Instr.desc i = Instr.Nop then begin
                 incr removed;
                 false
               end
               else true)
      in
      if List.length kept <> Array.length body then
        Block.set_body b (Array.of_list kept))
    (Func.cfg func);
  !removed
