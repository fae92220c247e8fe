open Lsra_ir
open Lsra_analysis

type t = {
  linear : Linear.t;
  intervals : Interval.t array;
  reg_busy : Interval.seg array array;
}

let no_reg (_ : Mreg.t) = ()

(* One reverse pass over the linear order computes, per temporary, the live
   segments (whose gaps are the lifetime holes) and, per machine register,
   the busy segments imposed by explicit register operands and call
   clobbers (paper §2.1, §2.5).

   All bookkeeping lives in the domain-local {!Workspace}: lifetime ids
   are temps [0, ntemps) followed by registers [ntemps, ntemps+nregs);
   closed segments and references are appended to flat event arenas, then
   bucketed into per-id slices of shared output arrays (a counting sort —
   the sweep emits each id's segments in decreasing position order, so a
   backward fill yields them sorted; the forward reference walk fills
   forward). The only per-function allocations are the exact-size output
   arrays the returned intervals point into. *)
let compute regidx func liveness loops =
  let linear = Linear.number func in
  let cfg = Func.cfg func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let ntemps = Func.temp_bound func in
  let nregs = Regidx.total regidx in
  let n_ids = ntemps + nregs in
  let ws = Workspace.get () in
  Workspace.reset ws ~n_temps:ntemps ~n_ids;
  let block_depth = Array.init nb (fun i -> Loop.depth loops i) in

  let open_end = ws.Workspace.open_end in
  let push_seg id s e =
    Workspace.buf_push ws.Workspace.ev_id id;
    Workspace.buf_push ws.Workspace.ev_s s;
    Workspace.buf_push ws.Workspace.ev_e e
  in
  (* Close id's open segment (if any) at start position [spos]. *)
  let close id spos =
    if open_end.(id) >= 0 then begin
      push_seg id spos open_end.(id);
      open_end.(id) <- -1
    end
  in

  (* The operand callbacks of the sweep, built once: [dp]/[up] are the
     def/use positions of the instruction being walked. *)
  let dp = ref 0 and up = ref 0 in
  let known tp =
    let id = Temp.id tp in
    Bytes.set ws.Workspace.known id '\001';
    ws.Workspace.temp_of.(id) <- tp;
    id
  in
  let def_temp tp =
    let id = known tp in
    if open_end.(id) >= 0 then close id !dp
    else push_seg id !dp !dp (* dead def: a point segment *)
  in
  let def_reg r =
    let id = ntemps + Regidx.of_reg regidx r in
    if open_end.(id) >= 0 then close id !dp else push_seg id !dp !dp
  in
  let use_temp tp =
    let id = known tp in
    if open_end.(id) < 0 then begin
      open_end.(id) <- !up;
      Workspace.buf_push ws.Workspace.opened id
    end
  in
  let use_reg r =
    let id = ntemps + Regidx.of_reg regidx r in
    if open_end.(id) < 0 then open_end.(id) <- !up
  in
  (* Position the callbacks at instruction slot [k] (linear index). *)
  let at k =
    dp := Linear.def_pos k;
    up := Linear.use_pos k
  in

  for bi = nb - 1 downto 0 do
    let b = blocks.(bi) in
    let bottom = Linear.block_bottom linear bi in
    (* Every temp opened in this block, so the block-top close below only
       touches those instead of scanning all [ntemps] ids per block. *)
    Workspace.buf_clear ws.Workspace.opened;
    Bitset.iter
      (fun id ->
        open_end.(id) <- bottom;
        Workspace.buf_push ws.Workspace.opened id)
      (Liveness.live_out liveness bi);
    let body = Block.body b in
    at (Linear.last_instr linear bi);
    Block.iter_term_uses ~temp:use_temp ~reg:use_reg b;
    let first = Linear.first_instr linear bi in
    for j = Array.length body - 1 downto 0 do
      at (first + j);
      Instr.iter_defs ~temp:def_temp ~reg:def_reg body.(j);
      Instr.iter_uses ~temp:use_temp ~reg:use_reg body.(j)
    done;
    let top = Linear.block_top linear bi in
    let opened = ws.Workspace.opened in
    for i = 0 to opened.Workspace.n - 1 do
      close opened.Workspace.a.(i) top
    done;
    (* Registers still open at block top are live-in by convention: the
       entry block's parameter registers. Elsewhere this is conservative
       but harmless. *)
    for ri = 0 to nregs - 1 do
      close (ntemps + ri) top
    done
  done;

  (* Bucket the segment events into per-id slices: count, prefix-sum,
     backward fill (the arena holds each id's segments in decreasing
     position order), then coalesce touching segments in place. *)
  let cnt = ws.Workspace.cnt and off = ws.Workspace.off in
  let nev = ws.Workspace.ev_id.Workspace.n in
  let ev_id = ws.Workspace.ev_id.Workspace.a in
  let ev_s = ws.Workspace.ev_s.Workspace.a in
  let ev_e = ws.Workspace.ev_e.Workspace.a in
  for i = 0 to nev - 1 do
    cnt.(ev_id.(i)) <- cnt.(ev_id.(i)) + 1
  done;
  off.(0) <- 0;
  for id = 0 to n_ids - 1 do
    off.(id + 1) <- off.(id) + cnt.(id)
  done;
  for id = 0 to n_ids - 1 do
    cnt.(id) <- off.(id + 1)
  done;
  Workspace.buf_reserve ws.Workspace.sg_s nev;
  Workspace.buf_reserve ws.Workspace.sg_e nev;
  let sg_s = ws.Workspace.sg_s.Workspace.a in
  let sg_e = ws.Workspace.sg_e.Workspace.a in
  for i = 0 to nev - 1 do
    let id = ev_id.(i) in
    let w = cnt.(id) - 1 in
    cnt.(id) <- w;
    sg_s.(w) <- ev_s.(i);
    sg_e.(w) <- ev_e.(i)
  done;
  (* In-place coalesce and compact; afterwards [off.(id)]/[cnt.(id)] hold
     each id's slice offset/length in the compacted prefix. The write
     cursor never passes a pending read (lengths only shrink). *)
  let w = ref 0 in
  for id = 0 to n_ids - 1 do
    let lo = off.(id) and hi = off.(id + 1) in
    let start_w = !w in
    if lo < hi then begin
      sg_s.(!w) <- sg_s.(lo);
      sg_e.(!w) <- sg_e.(lo);
      incr w;
      for i = lo + 1 to hi - 1 do
        if sg_s.(i) <= sg_e.(!w - 1) + 1 then
          sg_e.(!w - 1) <- max sg_e.(!w - 1) sg_e.(i)
        else begin
          sg_s.(!w) <- sg_s.(i);
          sg_e.(!w) <- sg_e.(i);
          incr w
        end
      done
    end;
    off.(id) <- start_w;
    cnt.(id) <- !w - start_w
  done;
  let seg_s = Array.sub sg_s 0 !w in
  let seg_e = Array.sub sg_e 0 !w in
  let seg_off = Array.sub off 0 n_ids in
  let seg_len = Array.sub cnt 0 n_ids in

  (* Reference points, gathered in one forward walk into the reference
     arena, then bucketed the same way (forward fill: the walk emits each
     temp's references in increasing position order). *)
  let rpos = ref 0 and meta = ref 0 in
  let note tp =
    Workspace.buf_push ws.Workspace.rf_id (Temp.id tp);
    Workspace.buf_push ws.Workspace.rf_pos !rpos;
    Workspace.buf_push ws.Workspace.rf_meta !meta
  in
  Array.iteri
    (fun bi b ->
      let depth = block_depth.(bi) in
      let read = Interval.meta_of_ref ~kind:Interval.Read ~depth in
      let write = Interval.meta_of_ref ~kind:Interval.Write ~depth in
      let first = Linear.first_instr linear bi in
      Array.iteri
        (fun j i ->
          rpos := Linear.use_pos (first + j);
          meta := read;
          Instr.iter_uses ~temp:note ~reg:no_reg i;
          rpos := Linear.def_pos (first + j);
          meta := write;
          Instr.iter_defs ~temp:note ~reg:no_reg i)
        (Block.body b);
      rpos := Linear.use_pos (Linear.last_instr linear bi);
      meta := read;
      Block.iter_term_uses ~temp:note ~reg:no_reg b)
    blocks;
  let nrf = ws.Workspace.rf_id.Workspace.n in
  let rf_id = ws.Workspace.rf_id.Workspace.a in
  let rf_pos = ws.Workspace.rf_pos.Workspace.a in
  let rf_meta = ws.Workspace.rf_meta.Workspace.a in
  Array.fill cnt 0 ntemps 0;
  for i = 0 to nrf - 1 do
    cnt.(rf_id.(i)) <- cnt.(rf_id.(i)) + 1
  done;
  off.(0) <- 0;
  for id = 0 to ntemps - 1 do
    off.(id + 1) <- off.(id) + cnt.(id)
  done;
  for id = 0 to ntemps - 1 do
    cnt.(id) <- off.(id)
  done;
  let ref_pos = Array.make nrf 0 in
  let ref_meta = Array.make nrf 0 in
  for i = 0 to nrf - 1 do
    let id = rf_id.(i) in
    let k = cnt.(id) in
    cnt.(id) <- k + 1;
    ref_pos.(k) <- rf_pos.(i);
    ref_meta.(k) <- rf_meta.(i)
  done;

  let intervals =
    Array.init ntemps (fun id ->
        let temp =
          if Bytes.get ws.Workspace.known id <> '\000' then
            ws.Workspace.temp_of.(id)
          else Temp.make ~cls:Rclass.Int id
        in
        Interval.of_slices ~temp ~seg_s ~seg_e ~soff:seg_off.(id)
          ~slen:seg_len.(id) ~ref_pos ~ref_meta ~roff:off.(id)
          ~rlen:(off.(id + 1) - off.(id)))
  in
  let reg_busy =
    Array.init nregs (fun ri ->
        let id = ntemps + ri in
        let soff = seg_off.(id) in
        Array.init seg_len.(id) (fun i ->
            { Interval.s = seg_s.(soff + i); e = seg_e.(soff + i) }))
  in
  { linear; intervals; reg_busy }

let linear t = t.linear
let interval t temp = t.intervals.(Temp.id temp)
let interval_of_id t id = t.intervals.(id)
let temp_name t id = Temp.to_string (Interval.temp t.intervals.(id))
let reg_busy t ri = t.reg_busy.(ri)
let n_temps t = Array.length t.intervals
