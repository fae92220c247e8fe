open Lsra_ir
open Lsra_analysis
module Regidx = Lsra.Regidx

(* The dense reference checker for [Lsra.Verify], as
   [Lifetime_ref] is for lifetimes: the same model (see
   lib/core/verify.ml), stated densely. Every register and slot of every
   block state is a [Bitset] over all temps, every block with a state is
   re-walked in every round of the fixed point, operands come from the
   list forms [Helpers.uses]/[Helpers.defs]/[Helpers.term_uses], and the
   original is indexed on every call. The equivalence property in
   [Suite_verify] holds the library's sparse checker to its verdicts and
   error reports. *)

type astate = {
  regs : Bitset.t array; (* flat register index -> set of temp ids *)
  slots : Bitset.t array;
}

(* The library's error and exception, so the two checkers' reports
   compare directly. *)
type error = Lsra.Verify.error = {
  fn : string;
  block : string;
  where : string;
  what : string;
}

exception Mismatch = Lsra.Verify.Mismatch

(* The site of an error: an instruction or terminator, printed, or a
   block named by its label. It is rendered only when a check fails. *)
type site =
  | At_instr of Instr.t
  | At_term of Block.terminator
  | At_label of string

let render_site = function
  | At_instr i -> Instr.to_string i
  | At_term t -> Block.term_to_string t
  | At_label l -> l

(* Errors are raised from deep inside the abstract execution, where only
   the instruction is in scope; the block and function names are filled
   in by the walkers below as the exception propagates outward. *)
let fail site fmt =
  Printf.ksprintf
    (fun what ->
      raise
        (Mismatch { fn = ""; block = ""; where = render_site site; what }))
    fmt

let within_block label f =
  try f () with
  | Mismatch e when e.block = "" -> raise (Mismatch { e with block = label })

let within_func name f =
  try f () with
  | Mismatch e when e.fn = "" -> raise (Mismatch { e with fn = name })

(* [List.iter2], with unequal lengths reported at the site, after the
   common pairs, as the library's operand pairing reports them. *)
let rec iter2 site f a b =
  match a, b with
  | [], [] -> ()
  | x :: a, y :: b ->
    f x y;
    iter2 site f a b
  | _ -> fail site "operand count differs from the input program's"

let copy_state s =
  {
    regs = Array.map Bitset.copy s.regs;
    slots = Array.map Bitset.copy s.slots;
  }

let meet_into ~dst ~src =
  let changed = ref false in
  let cell d s = if Bitset.inter_into ~dst:d ~src:s then changed := true in
  Array.iteri (fun i d -> cell d src.regs.(i)) dst.regs;
  Array.iteri (fun i d -> cell d src.slots.(i)) dst.slots;
  !changed

type original = { o_uses : Loc.t list; o_defs : Loc.t list }

let index_original (func : Func.t) =
  let tbl = Hashtbl.create 256 in
  Cfg.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          Hashtbl.replace tbl (Instr.uid i)
            { o_uses = Helpers.uses i; o_defs = Helpers.defs i })
        (Block.body b);
      Hashtbl.replace tbl (Block.term_uid b)
        { o_uses = Helpers.term_uses b; o_defs = [] })
    (Func.cfg func);
  tbl

(* Ordered original bodies, keyed by block label: the deletion cursor
   below walks these to find which original instructions a cleanup pass
   removed, and where. Resolution blocks have no entry. *)
let index_original_bodies (func : Func.t) =
  let tbl = Hashtbl.create 64 in
  Cfg.iter_blocks
    (fun b -> Hashtbl.replace tbl (Block.label b) (Block.body b))
    (Func.cfg func);
  tbl

let run machine ~original ~allocated =
  within_func (Func.name allocated) @@ fun () ->
  let regidx = Regidx.create machine in
  let nregs = Regidx.total regidx in
  let orig = index_original original in
  let orig_bodies = index_original_bodies original in
  (* Original-tagged uids still present in the allocated code: the
     deletion cursor applies a skipped instruction's value flow as soon
     as the walk passes the last kept instruction before it — before any
     allocator-inserted code that follows (a spill store right after a
     deleted coalesced move must copy the move's destination content,
     not the pre-move one). *)
  let present = Hashtbl.create 256 in
  let cfg = Func.cfg allocated in
  let nslots = Func.n_slots allocated in
  let ntemps = max (Func.temp_bound original) (Func.temp_bound allocated) in
  let flat r = Regidx.of_reg regidx r in

  (* Structural check: no temporaries remain. *)
  Cfg.iter_blocks
    (fun b ->
      within_block (Block.label b) @@ fun () ->
      let check_temp site t =
        fail site "temporary %s survives allocation" (Temp.to_string t)
      in
      let no_reg (_ : Mreg.t) = () in
      Array.iter
        (fun i ->
          if Instr.tag i = Instr.Original then
            Hashtbl.replace present (Instr.uid i) ();
          let site = At_instr i in
          Instr.iter_uses ~temp:(check_temp site) ~reg:no_reg i;
          Instr.iter_defs ~temp:(check_temp site) ~reg:no_reg i)
        (Block.body b);
      Block.iter_term_uses ~temp:(check_temp (At_term (Block.term b)))
        ~reg:no_reg b)
    cfg;

  let kill_temp st id =
    Array.iter (fun s -> Bitset.remove s id) st.regs;
    Array.iter (fun s -> Bitset.remove s id) st.slots
  in

  (* Value flow of an original instruction a cleanup pass deleted. Only
     moves (coalesced into self-moves) and nops may legally vanish; a
     deleted [t := u] makes t's current value u's, so every location
     holding u gains t. *)
  let apply_deleted st (oi : Instr.t) =
    match Instr.is_move oi with
    | Some (Loc.Temp td, Loc.Temp ts) ->
      let d = Temp.id td and s = Temp.id ts in
      if d <> s then begin
        kill_temp st d;
        let tag set = if Bitset.mem set s then Bitset.add set d in
        Array.iter tag st.regs;
        Array.iter tag st.slots
      end
    | Some (Loc.Temp td, Loc.Reg r) ->
      kill_temp st (Temp.id td);
      Bitset.add st.regs.(flat r) (Temp.id td)
    | Some (Loc.Reg r, Loc.Temp ts) ->
      (* deleted only if the allocator placed ts in r already; if the
         state cannot show that, r's content is no longer known *)
      if not (Bitset.mem st.regs.(flat r) (Temp.id ts)) then
        Bitset.clear st.regs.(flat r)
    | Some (Loc.Reg _, Loc.Reg _) -> ()
    | None -> (
      match Instr.desc oi with
      | Instr.Nop -> ()
      | _ ->
        fail (At_instr oi)
          "original instruction was deleted by a cleanup pass but is \
           neither a move nor a nop")
  in

  let exec_instr sync st (i : Instr.t) =
    let site = At_instr i in
    let reg_of site (l : Loc.t) =
      match l with
      | Loc.Reg r -> r
      | Loc.Temp _ -> fail site "unexpected temporary"
    in
    let check_original_refs o uses defs =
      (* Uses: original temp operands must be found, positionally, in
         registers holding their current value; register operands must be
         untouched. *)
      iter2 site
        (fun (ol : Loc.t) (al : Loc.t) ->
          match ol with
          | Loc.Temp t ->
            let r = reg_of site al in
            if not (Bitset.mem st.regs.(flat r) (Temp.id t)) then
              if Bitset.is_empty st.regs.(flat r) then
                fail site "use of %s reads %s, whose contents are unknown"
                  (Temp.to_string t) (Mreg.to_string r)
              else
                fail site
                  "use of %s reads %s, which holds the value of other temps"
                  (Temp.to_string t) (Mreg.to_string r)
          | Loc.Reg r ->
            let r' = reg_of site al in
            if not (Mreg.equal r r') then
              fail site "register operand %s was rewritten to %s"
                (Mreg.to_string r) (Mreg.to_string r'))
        o.o_uses uses;
      (* Defs: stale copies of the defined temp die everywhere; the
         target location's content becomes... the new value. For a move,
         the destination additionally keeps the source's content (it is a
         copy); for any other instruction the target holds only the
         defined temp. *)
      let move_source_content () =
        match Instr.desc i with
        | Instr.Move { src = Operand.Loc (Loc.Reg rs); _ } ->
          Some (Bitset.copy st.regs.(flat rs))
        | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _
        | Instr.Load _ | Instr.Store _ | Instr.Spill_load _
        | Instr.Spill_store _ | Instr.Call _ | Instr.Nop ->
          None
      in
      (* capture before killing: src content may include the def'd temp's
         old value, which must not leak *)
      let src_content = move_source_content () in
      iter2 site
        (fun (ol : Loc.t) (al : Loc.t) ->
          match ol with
          | Loc.Temp t ->
            let r = reg_of site al in
            let id = Temp.id t in
            kill_temp st id;
            let dst = st.regs.(flat r) in
            Bitset.clear dst;
            (match src_content with
            | Some src ->
              Bitset.remove src id;
              ignore (Bitset.union_into ~dst ~src)
            | None -> ());
            Bitset.add dst id
          | Loc.Reg r ->
            let r' = reg_of site al in
            if not (Mreg.equal r r') then
              fail site "register def %s was rewritten to %s"
                (Mreg.to_string r) (Mreg.to_string r');
            let dst = st.regs.(flat r) in
            Bitset.clear dst;
            (match src_content with
            | Some src -> ignore (Bitset.union_into ~dst ~src)
            | None -> ()))
        o.o_defs defs
    in
    match Instr.tag i with
    | Instr.Original -> (
      match Hashtbl.find_opt orig (Instr.uid i) with
      | None -> fail site "instruction does not come from the input program"
      | Some o ->
        check_original_refs o (Helpers.uses i) (Helpers.defs i);
        (* Calls additionally clobber caller-saved registers. *)
        (match Instr.desc i with
        | Instr.Call { clobbers; rets; _ } ->
          List.iter
            (fun r ->
              if not (List.exists (Mreg.equal r) rets) then
                Bitset.clear st.regs.(flat r))
            clobbers
        | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _
        | Instr.Load _ | Instr.Store _ | Instr.Spill_load _
        | Instr.Spill_store _ | Instr.Nop ->
          ());
        (* Only now move the deletion cursor: instructions deleted just
           after this one apply their value flow to the post-instruction
           state, before any following allocator-inserted code runs. *)
        sync (Instr.uid i) site)
    | Instr.Spill _ -> (
      (* Allocator-inserted code copies content sets around. *)
      match Instr.desc i with
      | Instr.Spill_load { dst; slot } ->
        let r = reg_of site dst in
        if slot >= nslots then fail site "slot %d out of range" slot;
        Bitset.assign ~dst:st.regs.(flat r) ~src:st.slots.(slot)
      | Instr.Spill_store { src; slot } ->
        let r = reg_of site src in
        if slot >= nslots then fail site "slot %d out of range" slot;
        Bitset.assign ~dst:st.slots.(slot) ~src:st.regs.(flat r)
      | Instr.Move { dst; src = Operand.Loc srcl } ->
        let rd = reg_of site dst and rs = reg_of site srcl in
        Bitset.assign ~dst:st.regs.(flat rd) ~src:st.regs.(flat rs)
      | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _
      | Instr.Load _ | Instr.Store _ | Instr.Call _ | Instr.Nop ->
        fail site "unexpected allocator-inserted instruction shape")
  in

  let exec_term st (b : Block.t) =
    let site = At_label (Block.label b) in
    match Hashtbl.find_opt orig (Block.term_uid b) with
    | None ->
      (* A block created by resolution: its terminator is a plain jump. *)
      (match Block.term b with
      | Block.Jump _ -> ()
      | Block.Branch _ | Block.Ret ->
        fail site "resolution block with a non-jump terminator")
    | Some o ->
      iter2 site
        (fun (ol : Loc.t) (al : Loc.t) ->
          match ol, al with
          | Loc.Temp t, Loc.Reg r ->
            if not (Bitset.mem st.regs.(flat r) (Temp.id t)) then
              fail site "terminator use of %s unsatisfied"
                (Temp.to_string t)
          | Loc.Reg r, Loc.Reg r' ->
            if not (Mreg.equal r r') then
              fail site "terminator register operand rewritten"
          | _, Loc.Temp t ->
            fail site "temporary %s in terminator"
              (Temp.to_string t))
        o.o_uses (Helpers.term_uses b)
  in

  (* Fixed-point walk over the allocated CFG. *)
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let in_state : astate option array = Array.make nb None in
  let entry = Cfg.block_index cfg (Cfg.entry cfg) in
  in_state.(entry) <-
    Some
      {
        regs = Array.init nregs (fun _ -> Bitset.create ntemps);
        slots = Array.init nslots (fun _ -> Bitset.create ntemps);
      };
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun bi b ->
        match in_state.(bi) with
        | None -> ()
        | Some s0 ->
          let st = copy_state s0 in
          within_block (Block.label b) (fun () ->
              (* Deletion cursor: kept original instructions must appear
                 in source order, and a deleted one contributes its value
                 flow at the right moment relative to allocator-inserted
                 code. A temp-defining deleted move sits right after the
                 previous kept instruction (spill stores following it
                 save its destination, so its flow applies eagerly); a
                 register-defining deleted move sits right before the
                 next kept instruction (the reloads feeding a convention
                 register come first, so its flow applies late). *)
              let obody =
                match Hashtbl.find_opt orig_bodies (Block.label b) with
                | Some body -> body
                | None -> [||]
              in
              let pos = ref 0 in
              let pending = ref [] in
              let flush_late () =
                List.iter (apply_deleted st) (List.rev !pending);
                pending := []
              in
              let advance () =
                while
                  !pos < Array.length obody
                  && not (Hashtbl.mem present (Instr.uid obody.(!pos)))
                do
                  let oi = obody.(!pos) in
                  (match Instr.is_move oi with
                  | Some (Loc.Reg _, _) -> pending := oi :: !pending
                  | Some (Loc.Temp _, _) | None -> apply_deleted st oi);
                  incr pos
                done
              in
              let sync uid site =
                if
                  !pos < Array.length obody
                  && Instr.uid obody.(!pos) = uid
                then begin
                  incr pos;
                  advance ()
                end
                else fail site "original instruction out of source order"
              in
              advance ();
              Array.iter
                (fun i ->
                  (match Instr.tag i with
                  | Instr.Original -> flush_late ()
                  | Instr.Spill _ -> ());
                  exec_instr sync st i)
                (Block.body b);
              flush_late ();
              if !pos < Array.length obody then
                fail (At_label (Block.label b))
                  "original instruction missing from its block";
              exec_term st b);
          (* [st] is dead after this: the last successor without a
             state takes it, earlier ones take copies. *)
          let rec feed = function
            | [] -> ()
            | l :: rest ->
              let si = Cfg.block_index cfg l in
              (match in_state.(si) with
              | None ->
                in_state.(si) <-
                  Some (if rest = [] then st else copy_state st);
                changed := true
              | Some dst -> if meet_into ~dst ~src:st then changed := true);
              feed rest
          in
          feed (Block.succ_labels b))
      blocks
  done;
  ()

let check machine ~original ~allocated =
  match run machine ~original ~allocated with
  | () -> Ok ()
  | exception Mismatch e -> Error e
