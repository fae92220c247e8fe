open Lsra_ir

(* Independent checker for allocator output.

   It abstractly executes the allocated function over a domain mapping
   every storage location (machine register, spill slot) to the *set* of
   temporaries whose current value it holds. Sets — rather than a single
   owner — are needed because coalescing legitimately makes one register
   carry several temporaries' (equal) values at once: after the original
   move [t := u] is allocated as a self-move of $r5, the register holds
   the current value of both [t] and [u].

   Spill loads/stores and allocator-inserted moves copy content sets; an
   original instruction (matched to the input program by uid) must find,
   for each temporary it used in the input, that temporary in its
   register's content set, and its defs remove the defined temporary from
   every stale copy. Block joins meet by intersection and the analysis
   runs to a fixed point, so values surviving loops in different
   locations on different paths are checked soundly.

   Cleanup passes may delete original instructions outright — the
   peephole pass erases a coalesced move [t := u] once allocation has
   turned it into a self-move. The walk therefore keeps a cursor into
   each block's original body: original instructions present in the
   allocated code must appear in source order, and any skipped ones must
   be moves or nops, whose value flow is applied to the abstract state
   ([t := u] deleted means every location holding u's current value now
   holds t's as well). Anything else missing is an error.

   The state is sparse. Most locations hold at most one temp, so a
   location's set is one int: [empty], or the temp's id. The rare
   location holding several coalesced temps refers instead to a sorted
   set in the run's overflow table, which is never changed in place, so a
   block's state is one int array over the locations and copies as one.
   While a block is walked, a temp -> holders reverse index makes a def's
   kill cost the temp's holders rather than every location.

   The fixed point keeps a round-robin order over the blocks but walks a
   block only when its in-state changed since its last walk: a walk of an
   unchanged state raises nothing new and feeds nothing new, so the first
   error raised, and its site, is the one a full re-walk of every block
   in every round would raise. *)

type error = { fn : string; block : string; where : string; what : string }

exception Mismatch of error

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

(* The input function, indexed once and shared by every re-verification
   of it: each original instruction or terminator by uid, numbered [k],
   with its operands in walk order, and each block's body with the [k]
   of every instruction in it. *)
module Uids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash uid = uid land max_int
end)

type entry = { k : int; uses : Loc.t array; defs : Loc.t array }

type original = {
  entries : entry Uids.t;
  count : int;
  o_bodies : (string, Instr.t array * int array) Hashtbl.t;
  o_temps : int;
}

(* What a uid the original does not have maps to. *)
let missing = { k = -1; uses = [||]; defs = [||] }

let index (func : Func.t) =
  let blocks = Cfg.blocks (Func.cfg func) in
  (* No array as long as the function: a block above the minor heap's
     256-word limit is allocated and freed outside it, and that churn
     alone raised a small-function run's peak RSS by 3 MB. *)
  let entries = Uids.create 256 in
  let count = ref 0 in
  let number uid uses defs =
    let k = !count in
    incr count;
    Uids.add entries uid { k; uses; defs };
    k
  in
  let locs walk x = Array.of_list (Loc.collect walk x) in
  let o_bodies = Hashtbl.create (Array.length blocks) in
  Array.iter
    (fun b ->
      let body = Array.copy (Block.body b) in
      let body_ks =
        Array.map
          (fun i ->
            number (Instr.uid i) (locs Instr.iter_uses i)
              (locs Instr.iter_defs i))
          body
      in
      ignore (number (Block.term_uid b) (locs Block.iter_term_uses b) [||]);
      Hashtbl.replace o_bodies (Block.label b) (body, body_ks))
    blocks;
  { entries; count = !count; o_bodies; o_temps = Func.temp_bound func }

(* Location sets. [empty], a temp id, or [-2 - i] for the overflow
   table's entry [i], a sorted array of at least two ids. *)
let empty = -1

type sets = { mutable tbl : int array array; mutable n : int }

let set_of sets c = sets.tbl.(-2 - c)

let intern sets a =
  match Array.length a with
  | 0 -> empty
  | 1 -> a.(0)
  | _ ->
    if sets.n = Array.length sets.tbl then begin
      let bigger = Array.make ((2 * sets.n) + 16) [||] in
      Array.blit sets.tbl 0 bigger 0 sets.n;
      sets.tbl <- bigger
    end;
    sets.tbl.(sets.n) <- a;
    sets.n <- sets.n + 1;
    -1 - sets.n

let sorted_mem a t =
  let rec go j = j < Array.length a && (a.(j) = t || (a.(j) < t && go (j + 1))) in
  go 0

let mem sets c t = c = t || (c < empty && sorted_mem (set_of sets c) t)

let add sets c t =
  if c = empty || c = t then t
  else if c >= 0 then intern sets (if c < t then [| c; t |] else [| t; c |])
  else
    let a = set_of sets c in
    if sorted_mem a t then c
    else intern sets (Array.of_list (List.merge compare (Array.to_list a) [ t ]))

let remove sets c t =
  if c = t then empty
  else if c >= empty then c
  else
    let a = set_of sets c in
    if sorted_mem a t then
      intern sets (Array.of_list (List.filter (( <> ) t) (Array.to_list a)))
    else c

(* [inter sets d s] is [d ∩ s], and [d] itself when that is all of [d]:
   the result differs from [d] exactly when the set shrank. *)
let inter sets d s =
  if d = s || d = empty then d
  else if s = empty then empty
  else if d >= 0 then if mem sets s d then d else empty
  else if s >= 0 then if mem sets d s then s else empty
  else
    let a = set_of sets d in
    let b = set_of sets s in
    let common = List.filter (sorted_mem b) (Array.to_list a) in
    if List.length common = Array.length a then d
    else intern sets (Array.of_list common)

let against machine o ~allocated =
  within_func (Func.name allocated) @@ fun () ->
  let regidx = Regidx.create machine in
  let cfg = Func.cfg allocated in
  let nslots = Func.n_slots allocated in
  (* Locations: spill slot [s] is [s], register [r] is [nslots + flat r]. *)
  let nlocs = nslots + Regidx.total regidx in
  let reg r = nslots + Regidx.of_reg regidx r in
  let ntemps = max o.o_temps (Func.temp_bound allocated) in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  (* Original-tagged instructions still present in the allocated code, by
     [k]: the deletion cursor applies a skipped instruction's value flow
     as soon as the walk passes the last kept instruction before it —
     before any allocator-inserted code that follows (a spill store right
     after a deleted coalesced move must copy the move's destination
     content, not the pre-move one). *)
  let present = Bytes.make o.count '\000' in
  let lookup uid = try Uids.find o.entries uid with Not_found -> missing in
  let instr_entries = Array.make nb [||] in

  (* Structural check: no temporaries remain. It also numbers every
     allocated instruction and terminator against the original, once. *)
  Array.iteri
    (fun bi b ->
      within_block (Block.label b) @@ fun () ->
      let check_temp site t =
        fail site "temporary %s survives allocation" (Temp.to_string t)
      in
      let no_reg (_ : Mreg.t) = () in
      instr_entries.(bi) <-
        Array.map
          (fun i ->
            let e =
              match Instr.tag i with
              | Instr.Original ->
                let e = lookup (Instr.uid i) in
                if e.k >= 0 then Bytes.set present e.k '\001';
                e
              | Instr.Spill _ -> missing
            in
            let site = At_instr i in
            Instr.iter_uses ~temp:(check_temp site) ~reg:no_reg i;
            Instr.iter_defs ~temp:(check_temp site) ~reg:no_reg i;
            e)
          (Block.body b);
      Block.iter_term_uses ~temp:(check_temp (At_term (Block.term b)))
        ~reg:no_reg b)
    blocks;
  let term_entries = Array.map (fun b -> lookup (Block.term_uid b)) blocks in
  let no_body = ([||], [||]) in
  let obodies =
    Array.map
      (fun b ->
        Option.value (Hashtbl.find_opt o.o_bodies (Block.label b))
          ~default:no_body)
      blocks
  in

  (* The walk's state, and its temp -> holders index, built on the
     walk's first kill or gain (most walks of a small block have none).
     A holder list may name a location that has since lost the temp;
     [kill] checks. Lists from an earlier walk are stale by their
     stamp. *)
  let sets = { tbl = [||]; n = 0 } in
  let own = Array.make nlocs empty in
  let holders = Array.make ntemps [] in
  let stamp = Array.make ntemps 0 in
  let walk_no = ref 0 in
  let indexed = ref false in
  let hold l t =
    if stamp.(t) = !walk_no then holders.(t) <- l :: holders.(t)
    else begin
      stamp.(t) <- !walk_no;
      holders.(t) <- [ l ]
    end
  in
  let note l c =
    if c >= 0 then hold l c
    else if c < empty then Array.iter (fun t -> hold l t) (set_of sets c)
  in
  let set l c =
    own.(l) <- c;
    if !indexed then note l c
  in
  let load src =
    Array.blit src 0 own 0 nlocs;
    indexed := false
  in
  let reindex () =
    if not !indexed then begin
      incr walk_no;
      indexed := true;
      Array.iteri note own
    end
  in
  let kill t =
    reindex ();
    if stamp.(t) = !walk_no then begin
      List.iter (fun l -> own.(l) <- remove sets own.(l) t) holders.(t);
      holders.(t) <- []
    end
  in
  let holding t =
    reindex ();
    if stamp.(t) = !walk_no then
      List.filter (fun l -> mem sets own.(l) t) holders.(t)
    else []
  in
  let add_to l t = set l (add sets own.(l) t) in

  (* Value flow of an original instruction a cleanup pass deleted. Only
     moves (coalesced into self-moves) and nops may legally vanish; a
     deleted [t := u] makes t's current value u's, so every location
     holding u gains t. *)
  let apply_deleted (oi : Instr.t) =
    match Instr.is_move oi with
    | Some (Loc.Temp td, Loc.Temp ts) ->
      let d = Temp.id td and s = Temp.id ts in
      if d <> s then begin
        kill d;
        List.iter (fun l -> add_to l d) (holding s)
      end
    | Some (Loc.Temp td, Loc.Reg r) ->
      kill (Temp.id td);
      add_to (reg r) (Temp.id td)
    | Some (Loc.Reg r, Loc.Temp ts) ->
      (* deleted only if the allocator placed ts in r already; if the
         state cannot show that, r's content is no longer known *)
      if not (mem sets own.(reg r) (Temp.id ts)) then set (reg r) empty
    | Some (Loc.Reg _, Loc.Reg _) -> ()
    | None -> (
      match Instr.desc oi with
      | Instr.Nop -> ()
      | _ ->
        fail (At_instr oi)
          "original instruction was deleted by a cleanup pass but is \
           neither a move nor a nop")
  in

  let reg_of site (l : Loc.t) =
    match l with
    | Loc.Reg r -> r
    | Loc.Temp _ -> fail site "unexpected temporary"
  in
  let slot_of site slot =
    if slot >= nslots then fail site "slot %d out of range" slot;
    slot
  in
  (* Pairs the operands an allocated walk visits with the original's,
     one for one, in order; [f] gets the original operand and the
     allocated one. *)
  let paired site (ols : Loc.t array) walk x f =
    let n = ref 0 in
    let next (al : Loc.t) =
      let j = !n in
      if j >= Array.length ols then
        fail site "operand count differs from the input program's";
      n := j + 1;
      f ols.(j) al
    in
    walk ~temp:(fun t -> next (Loc.Temp t)) ~reg:(fun r -> next (Loc.Reg r)) x;
    if !n < Array.length ols then
      fail site "operand count differs from the input program's"
  in

  let exec_original sync (i : Instr.t) e =
    let site = At_instr i in
    if e.k < 0 then fail site "instruction does not come from the input program";
    (* Uses: original temp operands must be found, positionally, in
       registers holding their current value; register operands must be
       untouched. *)
    paired site e.uses Instr.iter_uses i (fun ol al ->
        match ol with
        | Loc.Temp t ->
          let r = reg_of site al in
          let c = own.(reg r) in
          if not (mem sets c (Temp.id t)) then
            if c = empty then
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
              (Mreg.to_string r) (Mreg.to_string r'));
    (* Defs: stale copies of the defined temp die everywhere; the target
       location then holds the new value only — or, for a move, the
       source's content as well (it is a copy), read before the kill:
       it may include the def'd temp's old value, which must not
       leak. *)
    let src_content =
      match Instr.desc i with
      | Instr.Move { src = Operand.Loc (Loc.Reg rs); _ } -> own.(reg rs)
      | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
      | Instr.Store _ | Instr.Spill_load _ | Instr.Spill_store _
      | Instr.Call _ | Instr.Nop ->
        empty
    in
    paired site e.defs Instr.iter_defs i (fun ol al ->
        match ol with
        | Loc.Temp t ->
          let r = reg_of site al in
          let id = Temp.id t in
          kill id;
          set (reg r) (add sets src_content id)
        | Loc.Reg r ->
          let r' = reg_of site al in
          if not (Mreg.equal r r') then
            fail site "register def %s was rewritten to %s"
              (Mreg.to_string r) (Mreg.to_string r');
          set (reg r) src_content);
    (* Calls additionally clobber caller-saved registers. *)
    (match Instr.desc i with
    | Instr.Call { clobbers; rets; _ } ->
      List.iter
        (fun r ->
          if not (List.exists (Mreg.equal r) rets) then set (reg r) empty)
        clobbers
    | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
    | Instr.Store _ | Instr.Spill_load _ | Instr.Spill_store _ | Instr.Nop ->
      ());
    (* Only now move the deletion cursor: instructions deleted just after
       this one apply their value flow to the post-instruction state,
       before any following allocator-inserted code runs. *)
    sync e.k site
  in

  (* Allocator-inserted code copies content sets around. *)
  let exec_spill (i : Instr.t) =
    let site = At_instr i in
    match Instr.desc i with
    | Instr.Spill_load { dst; slot } ->
      let r = reg_of site dst in
      let s = slot_of site slot in
      set (reg r) own.(s)
    | Instr.Spill_store { src; slot } ->
      let r = reg_of site src in
      let s = slot_of site slot in
      set s own.(reg r)
    | Instr.Move { dst; src = Operand.Loc srcl } ->
      let rd = reg_of site dst and rs = reg_of site srcl in
      set (reg rd) own.(reg rs)
    | Instr.Move _ | Instr.Bin _ | Instr.Un _ | Instr.Cmp _ | Instr.Load _
    | Instr.Store _ | Instr.Call _ | Instr.Nop ->
      fail site "unexpected allocator-inserted instruction shape"
  in

  let exec_term bi (b : Block.t) =
    let site = At_label (Block.label b) in
    let e = term_entries.(bi) in
    if e.k < 0 then
      (* A block created by resolution: its terminator is a plain jump. *)
      match Block.term b with
      | Block.Jump _ -> ()
      | Block.Branch _ | Block.Ret ->
        fail site "resolution block with a non-jump terminator"
    else
      paired site e.uses Block.iter_term_uses b (fun ol al ->
          match ol, al with
          | Loc.Temp t, Loc.Reg r ->
            if not (mem sets own.(reg r) (Temp.id t)) then
              fail site "terminator use of %s unsatisfied" (Temp.to_string t)
          | Loc.Reg r, Loc.Reg r' ->
            if not (Mreg.equal r r') then
              fail site "terminator register operand rewritten"
          | _, Loc.Temp t ->
            fail site "temporary %s in terminator" (Temp.to_string t))
  in

  (* Deletion cursor: kept original instructions must appear in source
     order, and a deleted one contributes its value flow at the right
     moment relative to allocator-inserted code. A temp-defining deleted
     move sits right after the previous kept instruction (spill stores
     following it save its destination, so its flow applies eagerly); a
     register-defining deleted move sits right before the next kept
     instruction (the reloads feeding a convention register come first,
     so its flow applies late). *)
  let walk bi b =
    let obody, oks = obodies.(bi) in
    let pos = ref 0 in
    let pending = ref [] in
    let flush_late () =
      List.iter apply_deleted (List.rev !pending);
      pending := []
    in
    let advance () =
      while !pos < Array.length oks && Bytes.get present oks.(!pos) = '\000' do
        let oi = obody.(!pos) in
        (match Instr.is_move oi with
        | Some (Loc.Reg _, _) -> pending := oi :: !pending
        | Some (Loc.Temp _, _) | None -> apply_deleted oi);
        incr pos
      done
    in
    let sync k site =
      if !pos < Array.length oks && oks.(!pos) = k then begin
        incr pos;
        advance ()
      end
      else fail site "original instruction out of source order"
    in
    advance ();
    let entries = instr_entries.(bi) in
    Array.iteri
      (fun j i ->
        match Instr.tag i with
        | Instr.Original ->
          flush_late ();
          exec_original sync i entries.(j)
        | Instr.Spill _ -> exec_spill i)
      (Block.body b);
    flush_late ();
    if !pos < Array.length oks then
      fail (At_label (Block.label b))
        "original instruction missing from its block";
    exec_term bi b
  in

  (* Fixed-point walk over the allocated CFG, re-walking only blocks
     whose in-state changed. Successors are resolved on a block's first
     walk, as a full re-walk would meet an unknown label there. *)
  let in_state = Array.make nb None in
  let dirty = Array.make nb false in
  let succs =
    Array.map
      (fun b ->
        lazy (Array.of_list (List.map (Cfg.block_index cfg) (Block.succ_labels b))))
      blocks
  in
  let entry = Cfg.block_index cfg (Cfg.entry cfg) in
  in_state.(entry) <- Some (Array.make nlocs empty);
  dirty.(entry) <- true;
  let again = ref true in
  while !again do
    again := false;
    Array.iteri
      (fun bi b ->
        match in_state.(bi) with
        | Some s0 when dirty.(bi) ->
          dirty.(bi) <- false;
          load s0;
          within_block (Block.label b) (fun () -> walk bi b);
          Array.iter
            (fun si ->
              let changed =
                match in_state.(si) with
                | None ->
                  in_state.(si) <- Some (Array.copy own);
                  true
                | Some dst ->
                  let changed = ref false in
                  for l = 0 to nlocs - 1 do
                    let d = dst.(l) in
                    if d <> empty && d <> own.(l) then begin
                      let m = inter sets d own.(l) in
                      if m <> d then begin
                        dst.(l) <- m;
                        changed := true
                      end
                    end
                  done;
                  !changed
              in
              if changed then begin
                dirty.(si) <- true;
                again := true
              end)
            (Lazy.force succs.(bi))
        | Some _ | None -> ())
      blocks
  done

let run machine ~original ~allocated =
  against machine (index original) ~allocated

let check machine ~original ~allocated =
  match run machine ~original ~allocated with
  | () -> Ok ()
  | exception Mismatch e -> Error e
