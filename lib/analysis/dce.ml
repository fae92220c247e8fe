open Lsra_ir

let has_side_effect i =
  match Instr.desc i with
  | Instr.Store _ | Instr.Spill_store _ | Instr.Call _ -> true
  | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
  | Instr.Spill_load _ | Instr.Nop ->
    false

(* Division traps on a zero denominator; removing one would change
   observable behaviour only for faulting programs, which we treat as
   undefined, so Div/Rem are removable when dead. *)

let no_reg (_ : Mreg.t) = ()

(* One backward walk per block against [liveness]: removes every
   side-effect-free instruction whose defs are all dead temps, and adds
   the temps the removed instructions use to [touched]. [live] and
   [dead] (one mark per body position) are scratch shared by every
   block, and the operand callbacks are built once per sweep. Every
   block still gets a fresh body, a copy when it lost nothing: keeping
   the parser's body arrays alive until the scan replaces them raised
   table3-large's peak RSS by 6% (EXPERIMENTS.md, "One liveness solve
   per function"), for 0.7% of DCE's allocation. *)
let sweep liveness func ~live ~dead ~touched =
  let removed = ref 0 in
  (* A def keeps its instruction when it writes a machine register or a
     live temp. *)
  let n_defs = ref 0 and n_kept = ref 0 in
  let count_temp t =
    incr n_defs;
    if Bitset.mem live (Temp.id t) then incr n_kept
  in
  let count_reg (_ : Mreg.t) =
    incr n_defs;
    incr n_kept
  in
  let gen t = Bitset.add live (Temp.id t) in
  let kill t = Bitset.remove live (Temp.id t) in
  let touch t = Bitset.add touched (Temp.id t) in
  Array.iteri
    (fun bi b ->
      Bitset.assign ~dst:live ~src:(Liveness.live_out liveness bi);
      Block.iter_term_uses ~temp:gen ~reg:no_reg b;
      let body = Block.body b in
      let n = Array.length body in
      if Bytes.length !dead < n then dead := Bytes.create (2 * n);
      let lost = ref 0 in
      for k = n - 1 downto 0 do
        let i = body.(k) in
        n_defs := 0;
        n_kept := 0;
        if not (has_side_effect i) then
          Instr.iter_defs ~temp:count_temp ~reg:count_reg i;
        if !n_defs > 0 && !n_kept = 0 then begin
          Bytes.unsafe_set !dead k '\001';
          incr lost;
          Instr.iter_uses ~temp:touch ~reg:no_reg i
        end
        else begin
          Bytes.unsafe_set !dead k '\000';
          Instr.iter_defs ~temp:kill ~reg:no_reg i;
          Instr.iter_uses ~temp:gen ~reg:no_reg i
        end
      done;
      if !lost > 0 then begin
        let keep = Array.make (n - !lost) body.(0) in
        let j = ref 0 in
        for k = 0 to n - 1 do
          if Bytes.unsafe_get !dead k = '\000' then begin
            keep.(!j) <- body.(k);
            incr j
          end
        done;
        Block.set_body b keep;
        removed := !removed + !lost
      end
      else Block.set_body b (Array.copy body))
    (Cfg.blocks (Func.cfg func));
  !removed

(* Removing an instruction whose defs are all dead only shrinks liveness,
   and only in the rows of the temps it used; a row that was empty at
   every block boundary stays empty. So after a sweep only the rows of
   [touched] temps live across some boundary can change, and re-solving
   them from empty keeps [liveness] equal to a fresh solve of the current
   bodies. When none changes, another sweep would see the same sets and
   remove nothing: that is the fixed point. [across] is the boundary set
   of the first solve; it may keep temps whose rows have since emptied,
   which costs a re-solve but never exactness. *)
let run_to_fixpoint func =
  let liveness = Liveness.compute func in
  let width = Liveness.width liveness in
  let across = Liveness.live_across_blocks liveness in
  let live = Bitset.create width in
  let touched = Bitset.create width in
  let dead = ref Bytes.empty in
  let rec go total =
    let removed = sweep liveness func ~live ~dead ~touched in
    if removed = 0 then total
    else begin
      ignore (Bitset.inter_into ~dst:touched ~src:across);
      if Bitset.is_empty touched || not (Liveness.refresh liveness func touched)
      then total + removed
      else begin
        Bitset.clear touched;
        go (total + removed)
      end
    end
  in
  let removed = go 0 in
  (removed, liveness)
