open Lsra_ir
open Lsra_analysis
open Lsra_target

(* George & Appel, "Iterated Register Coalescing" (TOPLAS 1996), as the
   paper's comparison allocator (§3): simplify / coalesce / freeze /
   potential-spill worklists, Briggs and George coalescing tests,
   precolored nodes for machine registers, and a spill-and-rebuild outer
   loop. Following the paper's implementation notes we use a
   lower-triangular bit matrix for the adjacency relation and solve the
   integer and floating-point register files as two separate problems. *)

exception Coloring_failure of string

type node_stage =
  | S_precolored
  | S_initial
  | S_simplify
  | S_freeze
  | S_spill
  | S_spilled
  | S_coalesced
  | S_colored
  | S_stack

type move_stage = M_worklist | M_active | M_coalesced | M_constrained | M_frozen

type ctx = {
  func : Func.t;
  cls : Rclass.t;
  k : int; (* number of registers = colors *)
  temp_base : int; (* node id of temp 0 *)
  class_temps : Temp.t option array; (* temp_bound slots; Some for this class *)
  no_spill : bool array; (* per temp id: spill-generated, must not respill *)
  stage : node_stage array;
  adj_bits : Bitset.t; (* lower-triangular bit matrix *)
  adj_list : int list array;
  degree : int array;
  move_list : int list array; (* node -> move indices *)
  mutable moves : (int * int) array; (* move idx -> (dst, src) nodes *)
  mutable move_stage : move_stage array;
  alias : int array;
  color : int array; (* assigned color (register index) or -1 *)
  spill_cost : float array;
  (* worklists; stage tags are the source of truth, entries may be stale *)
  mutable wl_simplify : int list;
  mutable wl_freeze : int list;
  mutable wl_spill : int list;
  mutable wl_moves : int list;
  mutable select_stack : int list;
  mutable coalesced_nodes : int list;
  mutable spilled_nodes : int list;
  stats : Stats.t;
}

let tri_index a b =
  let hi = max a b and lo = min a b in
  (hi * (hi + 1) / 2) + lo

let in_adj ctx a b = a <> b && Bitset.mem ctx.adj_bits (tri_index a b)

let is_precolored ctx n = n < ctx.k

let add_edge ctx a b =
  if a <> b && not (in_adj ctx a b) then begin
    Bitset.add ctx.adj_bits (tri_index a b);
    ctx.stats.Stats.interference_edges <-
      ctx.stats.Stats.interference_edges + 1;
    if not (is_precolored ctx a) then begin
      ctx.adj_list.(a) <- b :: ctx.adj_list.(a);
      ctx.degree.(a) <- ctx.degree.(a) + 1
    end;
    if not (is_precolored ctx b) then begin
      ctx.adj_list.(b) <- a :: ctx.adj_list.(b);
      ctx.degree.(b) <- ctx.degree.(b) + 1
    end
  end

(* Nodes adjacent to [n] that are still in play. *)
let adjacent ctx n =
  List.filter
    (fun m ->
      match ctx.stage.(m) with
      | S_stack | S_coalesced -> false
      | S_precolored | S_initial | S_simplify | S_freeze | S_spill
      | S_spilled | S_colored ->
        true)
    ctx.adj_list.(n)

let node_moves ctx n =
  List.filter
    (fun m ->
      match ctx.move_stage.(m) with
      | M_worklist | M_active -> true
      | M_coalesced | M_constrained | M_frozen -> false)
    ctx.move_list.(n)

let move_related ctx n = node_moves ctx n <> []

let rec get_alias ctx n =
  match ctx.stage.(n) with
  | S_coalesced -> get_alias ctx ctx.alias.(n)
  | S_precolored | S_initial | S_simplify | S_freeze | S_spill | S_spilled
  | S_colored | S_stack ->
    n

let enable_moves ctx nodes =
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          if ctx.move_stage.(m) = M_active then begin
            ctx.move_stage.(m) <- M_worklist;
            ctx.wl_moves <- m :: ctx.wl_moves
          end)
        (node_moves ctx n))
    nodes

let add_to_worklist ctx n =
  if
    (not (is_precolored ctx n))
    && (not (move_related ctx n))
    && ctx.degree.(n) < ctx.k
  then begin
    ctx.stage.(n) <- S_simplify;
    ctx.wl_simplify <- n :: ctx.wl_simplify
  end

let decrement_degree ctx n =
  if not (is_precolored ctx n) then begin
    let d = ctx.degree.(n) in
    ctx.degree.(n) <- d - 1;
    if d = ctx.k then begin
      enable_moves ctx (n :: adjacent ctx n);
      if ctx.stage.(n) = S_spill then
        if move_related ctx n then begin
          ctx.stage.(n) <- S_freeze;
          ctx.wl_freeze <- n :: ctx.wl_freeze
        end
        else begin
          ctx.stage.(n) <- S_simplify;
          ctx.wl_simplify <- n :: ctx.wl_simplify
        end
    end
  end

let simplify ctx =
  match ctx.wl_simplify with
  | [] -> assert false
  | n :: rest ->
    ctx.wl_simplify <- rest;
    if ctx.stage.(n) = S_simplify then begin
      ctx.stage.(n) <- S_stack;
      ctx.select_stack <- n :: ctx.select_stack;
      List.iter (decrement_degree ctx) (adjacent ctx n)
    end

let ok ctx t r =
  ctx.degree.(t) < ctx.k || is_precolored ctx t || in_adj ctx t r

let briggs ctx u v =
  let seen = Hashtbl.create 16 in
  let count = ref 0 in
  List.iter
    (fun n ->
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        if ctx.degree.(n) >= ctx.k || is_precolored ctx n then incr count
      end)
    (adjacent ctx u @ adjacent ctx v);
  !count < ctx.k

let combine ctx u v =
  ctx.stage.(v) <- S_coalesced;
  ctx.coalesced_nodes <- v :: ctx.coalesced_nodes;
  ctx.alias.(v) <- u;
  ctx.move_list.(u) <- ctx.move_list.(v) @ ctx.move_list.(u);
  enable_moves ctx [ v ];
  List.iter
    (fun t ->
      add_edge ctx t u;
      decrement_degree ctx t)
    (adjacent ctx v);
  if ctx.degree.(u) >= ctx.k && ctx.stage.(u) = S_freeze then begin
    ctx.stage.(u) <- S_spill;
    ctx.wl_spill <- u :: ctx.wl_spill
  end

let coalesce ctx =
  match ctx.wl_moves with
  | [] -> assert false
  | m :: rest ->
    ctx.wl_moves <- rest;
    if ctx.move_stage.(m) = M_worklist then begin
      let dst, src = ctx.moves.(m) in
      let x = get_alias ctx dst and y = get_alias ctx src in
      let u, v = if is_precolored ctx y then (y, x) else (x, y) in
      if u = v then begin
        ctx.move_stage.(m) <- M_coalesced;
        ctx.stats.Stats.coalesced_moves <-
          ctx.stats.Stats.coalesced_moves + 1;
        add_to_worklist ctx u
      end
      else if is_precolored ctx v || in_adj ctx u v then begin
        ctx.move_stage.(m) <- M_constrained;
        add_to_worklist ctx u;
        add_to_worklist ctx v
      end
      else if
        (is_precolored ctx u && List.for_all (fun t -> ok ctx t u) (adjacent ctx v))
        || ((not (is_precolored ctx u)) && briggs ctx u v)
      then begin
        ctx.move_stage.(m) <- M_coalesced;
        ctx.stats.Stats.coalesced_moves <-
          ctx.stats.Stats.coalesced_moves + 1;
        combine ctx u v;
        add_to_worklist ctx u
      end
      else ctx.move_stage.(m) <- M_active
    end

let freeze_moves ctx u =
  List.iter
    (fun m ->
      let dst, src = ctx.moves.(m) in
      let x = get_alias ctx dst and y = get_alias ctx src in
      let v = if y = get_alias ctx u then x else y in
      ctx.move_stage.(m) <- M_frozen;
      if (not (move_related ctx v)) && ctx.degree.(v) < ctx.k
         && not (is_precolored ctx v)
      then begin
        ctx.stage.(v) <- S_simplify;
        ctx.wl_simplify <- v :: ctx.wl_simplify
      end)
    (node_moves ctx u)

let freeze ctx =
  match ctx.wl_freeze with
  | [] -> assert false
  | n :: rest ->
    ctx.wl_freeze <- rest;
    if ctx.stage.(n) = S_freeze then begin
      ctx.stage.(n) <- S_simplify;
      ctx.wl_simplify <- n :: ctx.wl_simplify;
      freeze_moves ctx n
    end

let select_spill ctx =
  let live = List.filter (fun n -> ctx.stage.(n) = S_spill) ctx.wl_spill in
  match live with
  | [] -> assert false
  | _ ->
    let cost n =
      let tid = n - ctx.temp_base in
      if tid >= 0 && ctx.no_spill.(tid) then infinity
      else ctx.spill_cost.(n) /. float_of_int (max 1 ctx.degree.(n))
    in
    let best =
      List.fold_left
        (fun acc n ->
          match acc with
          | None -> Some (n, cost n)
          | Some (_, c) ->
            let cn = cost n in
            if cn < c then Some (n, cn) else acc)
        None live
    in
    (* Choosing an unspillable (spill-generated) node here is still fine:
       the choice is optimistic, and such short fragments virtually always
       receive a color in the select phase. An *actual* spill of one is
       rejected in [rewrite_spills]. *)
    (match best with
    | Some (n, _) ->
      ctx.wl_spill <- List.filter (fun m -> m <> n) ctx.wl_spill;
      ctx.stage.(n) <- S_simplify;
      ctx.wl_simplify <- n :: ctx.wl_simplify;
      freeze_moves ctx n
    | None -> assert false)

let assign_colors ctx =
  List.iter
    (fun n ->
      if ctx.stage.(n) = S_stack then begin
        let forbidden = Array.make ctx.k false in
        List.iter
          (fun w ->
            let a = get_alias ctx w in
            if is_precolored ctx a then forbidden.(a) <- true
            else if ctx.stage.(a) = S_colored then forbidden.(ctx.color.(a)) <- true)
          ctx.adj_list.(n);
        let rec first c =
          if c >= ctx.k then None
          else if forbidden.(c) then first (c + 1)
          else Some c
        in
        match first 0 with
        | Some c ->
          ctx.stage.(n) <- S_colored;
          ctx.color.(n) <- c
        | None ->
          ctx.stage.(n) <- S_spilled;
          ctx.spilled_nodes <- n :: ctx.spilled_nodes
      end)
    ctx.select_stack;
  ctx.select_stack <- [];
  List.iter
    (fun n ->
      let a = get_alias ctx n in
      if ctx.stage.(a) = S_colored || is_precolored ctx a then begin
        ctx.color.(n) <- (if is_precolored ctx a then a else ctx.color.(a))
      end)
    ctx.coalesced_nodes

(* Build the interference graph and move lists from per-block backward
   scans seeded with liveness. Each instruction's operands are walked
   into two reused buffers of node ids, uses and defs, in operand order. *)
let build ctx liveness loops =
  let cfg = Func.cfg ctx.func in
  let node_of_temp t =
    if Rclass.equal (Temp.cls t) ctx.cls then ctx.temp_base + Temp.id t
    else -1
  in
  let node_of_reg r =
    if Rclass.equal (Mreg.cls r) ctx.cls then Mreg.idx r else -1
  in
  let uses = { Workspace.a = Array.make 8 0; n = 0 }
  and defs = { Workspace.a = Array.make 8 0; n = 0 } in
  let push buf n = if n >= 0 then Workspace.buf_push buf n in
  let use_temp t = push uses (node_of_temp t)
  and use_reg r = push uses (node_of_reg r)
  and def_temp t = push defs (node_of_temp t)
  and def_reg r = push defs (node_of_reg r) in
  let moves = ref [] and n_moves = ref 0 in
  let blocks = Cfg.blocks cfg in
  Array.iteri
    (fun bi b ->
      let depth = Loop.depth loops bi in
      let weight = 10.0 ** float_of_int depth in
      let live = Hashtbl.create 32 in
      Bitset.iter
        (fun id ->
          match ctx.class_temps.(id) with
          | Some _ -> Hashtbl.replace live (ctx.temp_base + id) ()
          | None -> ())
        (Liveness.live_out liveness bi);
      let account n = ctx.spill_cost.(n) <- ctx.spill_cost.(n) +. weight in
      (* [d] and [s]: the move's nodes, or -1 when it is not a move of
         this class. *)
      let step_instr d s =
        for x = 0 to uses.n - 1 do account uses.a.(x) done;
        for x = 0 to defs.n - 1 do account defs.a.(x) done;
        if d >= 0 then begin
          (* live := live \ use(I); record the move *)
          Hashtbl.remove live s;
          let mi = !n_moves in
          moves := (d, s) :: !moves;
          incr n_moves;
          ctx.wl_moves <- mi :: ctx.wl_moves;
          ctx.move_list.(d) <- mi :: ctx.move_list.(d);
          if d <> s then ctx.move_list.(s) <- mi :: ctx.move_list.(s)
        end;
        for x = 0 to defs.n - 1 do Hashtbl.replace live defs.a.(x) () done;
        for x = 0 to defs.n - 1 do
          let d = defs.a.(x) in
          Hashtbl.iter (fun l () -> add_edge ctx l d) live
        done;
        for x = 0 to defs.n - 1 do Hashtbl.remove live defs.a.(x) done;
        for x = 0 to uses.n - 1 do Hashtbl.replace live uses.a.(x) () done
      in
      (* terminator first (we scan backward) *)
      Workspace.buf_clear uses;
      Workspace.buf_clear defs;
      Block.iter_term_uses ~temp:use_temp ~reg:use_reg b;
      step_instr (-1) (-1);
      let body = Block.body b in
      for j = Array.length body - 1 downto 0 do
        let i = body.(j) in
        Workspace.buf_clear uses;
        Workspace.buf_clear defs;
        Instr.iter_uses ~temp:use_temp ~reg:use_reg i;
        Instr.iter_defs ~temp:def_temp ~reg:def_reg i;
        (* A move of this class: its one def and its one use. *)
        if Option.is_some (Instr.is_move i) && defs.n = 1 && uses.n = 1 then
          step_instr defs.a.(0) uses.a.(0)
        else step_instr (-1) (-1)
      done)
    blocks;
  ctx.moves <- Array.of_list (List.rev !moves);
  ctx.move_stage <- Array.make !n_moves M_worklist

let make_worklist ctx =
  Array.iteri
    (fun id t ->
      match t with
      | None -> ()
      | Some _ ->
        let n = ctx.temp_base + id in
        if ctx.stage.(n) = S_initial then
          if ctx.degree.(n) >= ctx.k then begin
            ctx.stage.(n) <- S_spill;
            ctx.wl_spill <- n :: ctx.wl_spill
          end
          else if move_related ctx n then begin
            ctx.stage.(n) <- S_freeze;
            ctx.wl_freeze <- n :: ctx.wl_freeze
          end
          else begin
            ctx.stage.(n) <- S_simplify;
            ctx.wl_simplify <- n :: ctx.wl_simplify
          end)
    ctx.class_temps

(* Insert spill code for the chosen nodes: a fresh temp per reference,
   loaded before uses and stored after defs (these fragments are marked
   unspillable; they are live only within one block). *)
let rewrite_spills ~trace ctx spilled =
  let func = ctx.func in
  let tr ev = match trace with None -> () | Some sink -> Trace.emit sink ev in
  let slot_of = Hashtbl.create 8 in
  (* Spill-generated fragments that failed to color are left alone: once
     the longer-lived nodes spilled in this round shorten the competing
     ranges, the fragments color on the next iteration. Only a round in
     which *nothing but* fragments failed cannot make progress. *)
  let real =
    List.filter (fun n -> not ctx.no_spill.(n - ctx.temp_base)) spilled
  in
  if real = [] then
    raise
      (Coloring_failure
         "only spill-generated fragments failed to color; register file \
          too small for the instruction set");
  List.iter
    (fun n ->
      let id = n - ctx.temp_base in
      let slot = Func.fresh_slot func in
      Hashtbl.replace slot_of id slot;
      let temp =
        match ctx.class_temps.(id) with
        | Some t -> Temp.to_string t
        | None -> Printf.sprintf "#%d" id
      in
      tr (Trace.Slot_alloc { temp; id; slot }))
    real;
  let fresh_no_spill = ref [] in
  (* A reference to a spilled temp becomes a fresh unspillable temp,
     loaded from the slot before a use or stored to it after a def;
     [emit] places that spill instruction. *)
  let slot_ref ~load emit (l : Loc.t) =
    match l with
    | Loc.Temp t when Hashtbl.mem slot_of (Temp.id t) ->
      let slot = Hashtbl.find slot_of (Temp.id t) in
      let nt = Func.fresh_temp func (Temp.cls t) in
      fresh_no_spill := Temp.id nt :: !fresh_no_spill;
      let temp = Temp.to_string t and id = Temp.id t in
      if load then begin
        emit
          (Instr.make
             ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_ld })
             (Instr.Spill_load { dst = Loc.Temp nt; slot }));
        ctx.stats.Stats.evict_loads <- ctx.stats.Stats.evict_loads + 1;
        tr (Trace.Second_chance { temp; id; pos = -1; reg = None; slot })
      end
      else begin
        emit
          (Instr.make
             ~tag:(Instr.Spill { phase = Instr.Evict; kind = Instr.Spill_st })
             (Instr.Spill_store { src = Loc.Temp nt; slot }));
        ctx.stats.Stats.evict_stores <- ctx.stats.Stats.evict_stores + 1;
        tr
          (Trace.Spill_split
             { temp; id; pos = -1; reg = None; slot; next_ref = None })
      end;
      Loc.Temp nt
    | Loc.Temp _ | Loc.Reg _ -> l
  in
  Cfg.iter_blocks
    (fun b ->
      let out = ref [] in
      let push r i = r := i :: !r in
      let body = Block.body b in
      for j = Array.length body - 1 downto 0 do
        let loads = ref [] and stores = ref [] in
        let i =
          Instr.rewrite
            ~use:(slot_ref ~load:true (push loads))
            ~def:(slot_ref ~load:false (push stores))
            body.(j)
        in
        out := !loads @ (i :: !stores) @ !out
      done;
      (* loads for terminator uses go at the very end of the body *)
      let term_loads = ref [] in
      Block.rewrite_term b ~use:(slot_ref ~load:true (push term_loads));
      Block.set_body b (Array.of_list (!out @ List.rev !term_loads)))
    (Func.cfg func);
  !fresh_no_spill

(* Apply the computed coloring to every operand of this class. *)
let apply_colors ~trace ctx =
  (match trace with
  | None -> ()
  | Some sink ->
    Array.iteri
      (fun id slot ->
        match slot with
        | None -> ()
        | Some t ->
          let c = ctx.color.(get_alias ctx (ctx.temp_base + id)) in
          if c >= 0 then
            Trace.emit sink
              (Trace.Assign
                 {
                   temp = Temp.to_string t;
                   id;
                   pos = -1;
                   reg = Mreg.make ~cls:ctx.cls c;
                   reason = Trace.Color;
                   hole_end = max_int;
                 }))
      ctx.class_temps);
  let map (l : Loc.t) =
    match l with
    | Loc.Temp t when Rclass.equal (Temp.cls t) ctx.cls ->
      let n = ctx.temp_base + Temp.id t in
      let c = ctx.color.(get_alias ctx n) in
      if c < 0 then
        raise
          (Coloring_failure
             (Printf.sprintf "uncolored temp %s" (Temp.to_string t)));
      Loc.Reg (Mreg.make ~cls:ctx.cls c)
    | Loc.Temp _ | Loc.Reg _ -> l
  in
  Cfg.iter_blocks
    (fun b ->
      Block.set_body b (Array.map (Instr.rewrite ~use:map ~def:map) (Block.body b));
      Block.rewrite_term b ~use:map)
    (Func.cfg ctx.func)

(* Color one class, starting from [liveness], the function's exact
   liveness as it stands. A spill rewrite changes the function, so every
   later round solves it again; the CFG stays, and so do [loops]. The
   re-solves are the allocator's own work: [Stats.Liveness] holds the
   function's one solve before allocation, which [Allocator.run] owns. *)
let allocate_class ?trace machine func cls stats loops liveness =
  let max_rounds = 48 in
  let rec round no_spill_ids iter liveness =
    if iter > max_rounds then
      raise (Coloring_failure "too many spill/rebuild iterations");
    stats.Stats.coloring_iterations <-
      max stats.Stats.coloring_iterations iter;
    let k = Machine.n_regs machine cls in
    let tb = Func.temp_bound func in
    let n = k + tb in
    let class_temps = Array.make tb None in
    List.iter
      (fun t ->
        if Rclass.equal (Temp.cls t) cls then
          class_temps.(Temp.id t) <- Some t)
      (Func.temps func);
    let no_spill = Array.make tb false in
    List.iter
      (fun id -> if id < tb then no_spill.(id) <- true)
      no_spill_ids;
    let stage =
      Array.init n (fun i ->
          if i < k then S_precolored
          else
            match class_temps.(i - k) with
            | Some _ -> S_initial
            | None -> S_colored (* unused slot; never enters worklists *))
    in
    let ctx =
      {
        func;
        cls;
        k;
        temp_base = k;
        class_temps;
        no_spill;
        stage;
        adj_bits = Bitset.create (n * (n + 1) / 2);
        adj_list = Array.make n [];
        degree =
          Array.init n (fun i -> if i < k then max_int / 2 else 0);
        move_list = Array.make n [];
        moves = [||];
        move_stage = [||];
        alias = Array.init n (fun i -> i);
        color = Array.init n (fun i -> if i < k then i else -1);
        spill_cost = Array.make n 0.0;
        wl_simplify = [];
        wl_freeze = [];
        wl_spill = [];
        wl_moves = [];
        select_stack = [];
        coalesced_nodes = [];
        spilled_nodes = [];
        stats;
      }
    in
    build ctx liveness loops;
    make_worklist ctx;
    let rec work () =
      if ctx.wl_simplify <> [] then (simplify ctx; work ())
      else if ctx.wl_moves <> [] then (coalesce ctx; work ())
      else if ctx.wl_freeze <> [] then (freeze ctx; work ())
      else if List.exists (fun m -> ctx.stage.(m) = S_spill) ctx.wl_spill
      then (select_spill ctx; work ())
      else ()
    in
    work ();
    assign_colors ctx;
    match ctx.spilled_nodes with
    | [] -> apply_colors ~trace ctx
    | spilled ->
      let fresh = rewrite_spills ~trace ctx spilled in
      round (fresh @ no_spill_ids) (iter + 1) (Liveness.compute func)
  in
  round [] 1 liveness

let run ?trace ~liveness machine func =
  Trace.emit_fn trace func;
  let stats = Stats.create () in
  let loops = Loop.compute (Func.cfg func) in
  allocate_class ?trace machine func Rclass.Int stats loops liveness;
  (* The integer colors rewrote the function: solve it again. *)
  allocate_class ?trace machine func Rclass.Float stats loops
    (Liveness.compute func);
  stats.Stats.slots <- Func.n_slots func;
  stats
