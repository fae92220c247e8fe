open Lsra_ir

(* The "spill everywhere" model the three whole-lifetime allocators share
   (two-pass binpacking, Poletto's linear scan and the exact allocator):
   every temporary lives in one register for its whole lifetime or in a
   stack slot, and each reference to a slot-resident temporary goes
   through a scratch register, with a load before a read and a store after
   a write. Only the choice of scratch register differs between them. *)

type t = {
  func : Func.t;
  regidx : Regidx.t;
  lifetimes : Lifetime.t;
  assignment : Mreg.t option array;
  slot_of : int array; (* per temp id; -1 = no slot yet *)
  stats : Stats.t;
  trace : Trace.t option;
}

let create trace liveness machine func =
  let stats = Stats.create () in
  let regidx, lifetimes = Binpack.analyse stats liveness machine func in
  let ntemps = Func.temp_bound func in
  {
    func;
    regidx;
    lifetimes;
    assignment = Array.make ntemps None;
    slot_of = Array.make ntemps (-1);
    stats;
    trace;
  }

let emit t ev = match t.trace with None -> () | Some sink -> Trace.emit sink ev
let slot t id = Binpack.slot t.trace t.func t.lifetimes t.slot_of id

let rewrite t ~scratch =
  let linear = Lifetime.linear t.lifetimes in
  let stats = t.stats in
  let tname = Lifetime.temp_name t.lifetimes in
  let spill_tag kind = Instr.Spill { phase = Instr.Evict; kind } in
  Array.iteri
    (fun bi b ->
      let out = ref [] in
      let emit_instr i = out := i :: !out in
      (* Spill code for the instruction being rewritten; [nth] counts its
         slot-resident operands so far. *)
      let loads = ref [] and stores = ref [] and nth = ref 0 in
      let spilled tp pos =
        let r = scratch tp pos !nth in
        incr nth;
        (Temp.id tp, r, slot t (Temp.id tp))
      in
      let use k (l : Loc.t) =
        match l with
        | Loc.Reg _ -> l
        | Loc.Temp tp -> (
          match t.assignment.(Temp.id tp) with
          | Some r -> Loc.Reg r
          | None ->
            let pos = Linear.use_pos k in
            let id, r, sl = spilled tp pos in
            loads :=
              Instr.make ~tag:(spill_tag Instr.Spill_ld)
                (Instr.Spill_load { dst = Loc.Reg r; slot = sl })
              :: !loads;
            stats.Stats.evict_loads <- stats.Stats.evict_loads + 1;
            emit t
              (Trace.Second_chance
                 { temp = tname id; id; pos; reg = Some r; slot = sl });
            Loc.Reg r)
      in
      let def k (l : Loc.t) =
        match l with
        | Loc.Reg _ -> l
        | Loc.Temp tp -> (
          match t.assignment.(Temp.id tp) with
          | Some r -> Loc.Reg r
          | None ->
            let pos = Linear.def_pos k in
            let id, r, sl = spilled tp pos in
            stores :=
              Instr.make ~tag:(spill_tag Instr.Spill_st)
                (Instr.Spill_store { src = Loc.Reg r; slot = sl })
              :: !stores;
            stats.Stats.evict_stores <- stats.Stats.evict_stores + 1;
            emit t
              (Trace.Spill_split
                 {
                   temp = tname id;
                   id;
                   pos;
                   reg = Some r;
                   slot = sl;
                   next_ref = None;
                 });
            Loc.Reg r)
      in
      let fresh () =
        loads := [];
        stores := [];
        nth := 0
      in
      let first = Linear.first_instr linear bi in
      Array.iteri
        (fun j i ->
          let k = first + j in
          fresh ();
          let i' = Instr.rewrite ~use:(use k) ~def:(def k) i in
          List.iter emit_instr (List.rev !loads);
          emit_instr i';
          List.iter emit_instr (List.rev !stores))
        (Block.body b);
      fresh ();
      Block.rewrite_term b ~use:(use (Linear.last_instr linear bi));
      List.iter emit_instr (List.rev !loads);
      Block.set_body b (Array.of_list (List.rev !out)))
    (Cfg.blocks (Func.cfg t.func));
  stats.Stats.slots <- Func.n_slots t.func
