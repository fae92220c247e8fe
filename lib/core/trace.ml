open Lsra_ir

type reason =
  | Free_hole
  | Hole_evict
  | Displace
  | Insufficient
  | Move_pref
  | Whole
  | Point
  | Color
  | Exact

let reason_to_string = function
  | Free_hole -> "free-hole"
  | Hole_evict -> "hole-evict"
  | Displace -> "displace"
  | Insufficient -> "insufficient-hole"
  | Move_pref -> "move-pref"
  | Whole -> "whole"
  | Point -> "point"
  | Color -> "color"
  | Exact -> "exact"

type candidate = {
  c_reg : Mreg.t;
  c_occupant : string option;
  c_benefit : float;
  c_hole_end : int;
}

type event =
  | Fn of { name : string; slots0 : int }
  | Block of { label : string }
  | Start of { temp : string; id : int; pos : int }
  | Assign of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t;
      reason : reason;
      hole_end : int;
    }
  | Evict_choice of {
      pos : int;
      incoming : string;
      incoming_benefit : float;
      candidates : candidate list;
    }
  | Spill_split of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t option;
      slot : int;
      next_ref : int option;
    }
  | Store_elided of { temp : string; id : int; pos : int; reg : Mreg.t }
  | Second_chance of {
      temp : string;
      id : int;
      pos : int;
      reg : Mreg.t option;
      slot : int;
    }
  | Early_second_chance of {
      temp : string;
      id : int;
      pos : int;
      src : Mreg.t;
      dst : Mreg.t;
    }
  | Pref_miss of { temp : string; id : int; pos : int; why : string }
  | Expire of { temp : string; id : int; pos : int; reg : Mreg.t }
  | Slot_alloc of { temp : string; id : int; slot : int }
  | Edge of { src : string; dst : string }
  | Resolve_store of {
      temp : string;
      id : int;
      reg : Mreg.t;
      slot : int;
      cycle : bool;
    }
  | Resolve_load of { temp : string; id : int; reg : Mreg.t; slot : int }
  | Resolve_move of {
      temp : string;
      id : int;
      dst : Mreg.t;
      src : Mreg.t;
      cycle : bool;
    }
  | Pass_begin of { pass : string }
  | Pass_end of { pass : string; changed : int }
  | Slot_renumber of { fn : string; from_slot : int; to_slot : int }
  | Downgrade of {
      req : string;
      from_algo : string;
      to_algo : string;
      budget : float;
      predicted : float;
    }

type t = { mutable rev : event list; mutable n : int }

let create () = { rev = []; n = 0 }

let emit t ev =
  t.rev <- ev :: t.rev;
  t.n <- t.n + 1

let emit_fn trace func =
  Option.iter
    (fun t -> emit t (Fn { name = Func.name func; slots0 = Func.n_slots func }))
    trace

let events t = List.rev t.rev
let count t = t.n

let since t n =
  let rec take k acc = function
    | ev :: rest when k > 0 -> take (k - 1) (ev :: acc) rest
    | _ -> acc
  in
  take (t.n - n) [] t.rev

let filter_fn name evs =
  let keep = ref false in
  List.filter
    (fun ev ->
      (match ev with Fn { name = n; _ } -> keep := String.equal n name | _ -> ());
      !keep)
    evs

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)

let hole_end_str e = if e = max_int then "inf" else string_of_int e

let benefit_str b =
  if Float.is_nan b then "-" else Printf.sprintf "%.3g" b

let reg_opt_str = function None -> "-" | Some r -> Mreg.to_string r

let text_of_event buf ev =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match ev with
  | Fn { name; slots0 } -> add "fn %s slots0=%d" name slots0
  | Block { label } -> add "  block %s" label
  | Start { temp; id; pos } -> add "    @%-4d start    %s#%d" pos temp id
  | Assign { temp; id; pos; reg; reason; hole_end } ->
      add "    @%-4d assign   %s#%d := %s (%s, hole-end=%s)" pos temp id
        (Mreg.to_string reg) (reason_to_string reason)
        (hole_end_str hole_end)
  | Evict_choice { pos; incoming; incoming_benefit; candidates } ->
      add "    @%-4d evict?   incoming %s benefit=%s" pos incoming
        (benefit_str incoming_benefit);
      List.iter
        (fun c ->
          add "\n                | %s %s benefit=%s hole-end=%s"
            (Mreg.to_string c.c_reg)
            (match c.c_occupant with None -> "free" | Some t -> "occ=" ^ t)
            (benefit_str c.c_benefit)
            (hole_end_str c.c_hole_end))
        candidates
  | Spill_split { temp; id; pos; reg; slot; next_ref } ->
      add "    @%-4d split    %s#%d %s -> slot%d next-ref=%s" pos temp id
        (reg_opt_str reg) slot
        (match next_ref with None -> "none" | Some p -> "@" ^ string_of_int p)
  | Store_elided { temp; id; pos; reg } ->
      add "    @%-4d no-store %s#%d %s consistent" pos temp id
        (Mreg.to_string reg)
  | Second_chance { temp; id; pos; reg; slot } ->
      add "    @%-4d reload   %s#%d slot%d -> %s (second chance)" pos temp id
        slot (reg_opt_str reg)
  | Early_second_chance { temp; id; pos; src; dst } ->
      add "    @%-4d esc      %s#%d %s -> %s (move, not store)" pos temp id
        (Mreg.to_string src) (Mreg.to_string dst)
  | Pref_miss { temp; id; pos; why } ->
      add "    @%-4d pref-miss %s#%d: %s" pos temp id why
  | Expire { temp; id; pos; reg } ->
      add "    @%-4d expire   %s#%d frees %s" pos temp id (Mreg.to_string reg)
  | Slot_alloc { temp; id; slot } -> add "    slot-alloc %s#%d -> slot%d" temp id slot
  | Edge { src; dst } -> add "  edge %s -> %s" src dst
  | Resolve_store { temp; id; reg; slot; cycle } ->
      add "    store %s -> slot%d (%s#%d)%s" (Mreg.to_string reg) slot temp id
        (if cycle then " [cycle-break]" else "")
  | Resolve_load { temp; id; reg; slot } ->
      add "    load  slot%d -> %s (%s#%d)" slot (Mreg.to_string reg) temp id
  | Resolve_move { temp; id; dst; src; cycle } ->
      add "    move  %s -> %s (%s#%d)%s" (Mreg.to_string src)
        (Mreg.to_string dst) temp id
        (if cycle then " [cycle-break]" else "")
  | Pass_begin { pass } -> add "pass %s begin" pass
  | Pass_end { pass; changed } -> add "pass %s end changed=%d" pass changed
  | Slot_renumber { fn; from_slot; to_slot } ->
      add "  slot-renumber %s: slot%d -> slot%d" fn from_slot to_slot
  | Downgrade { req; from_algo; to_algo; budget; predicted } ->
      add "downgrade %s: %s -> %s (budget %.6fs, predicted %.6fs)" req
        from_algo to_algo budget predicted);
  Buffer.add_char buf '\n'

let to_text evs =
  let buf = Buffer.create 4096 in
  List.iter (text_of_event buf) evs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSONL rendering                                                     *)

let json_of_event ev =
  let obj name fields = `Assoc (("ev", `String name) :: fields) in
  let str s = `String s and int n = `Int n in
  let reg r = str (Mreg.to_string r) in
  let opt f = function None -> `Null | Some x -> f x in
  let hole_end e = if e = max_int then `Null else int e in
  match ev with
  | Fn { name; slots0 } -> obj "fn" [ ("name", str name); ("slots0", int slots0) ]
  | Block { label } -> obj "block" [ ("label", str label) ]
  | Start { temp; id; pos } ->
      obj "start" [ ("temp", str temp); ("id", int id); ("pos", int pos) ]
  | Assign { temp; id; pos; reg = r; reason; hole_end = e } ->
      obj "assign"
        [
          ("temp", str temp); ("id", int id); ("pos", int pos); ("reg", reg r);
          ("reason", str (reason_to_string reason)); ("hole_end", hole_end e);
        ]
  | Evict_choice { pos; incoming; incoming_benefit; candidates } ->
      obj "evict_choice"
        [
          ("pos", int pos); ("incoming", str incoming);
          ("incoming_benefit", `Float incoming_benefit);
          ( "candidates",
            `List
              (List.map
                 (fun c ->
                   `Assoc
                     [
                       ("reg", reg c.c_reg); ("occupant", opt str c.c_occupant);
                       ("benefit", `Float c.c_benefit);
                       ("hole_end", hole_end c.c_hole_end);
                     ])
                 candidates) );
        ]
  | Spill_split { temp; id; pos; reg = r; slot; next_ref } ->
      obj "spill_split"
        [
          ("temp", str temp); ("id", int id); ("pos", int pos);
          ("reg", opt reg r); ("slot", int slot); ("next_ref", opt int next_ref);
        ]
  | Store_elided { temp; id; pos; reg = r } ->
      obj "store_elided"
        [ ("temp", str temp); ("id", int id); ("pos", int pos); ("reg", reg r) ]
  | Second_chance { temp; id; pos; reg = r; slot } ->
      obj "second_chance"
        [
          ("temp", str temp); ("id", int id); ("pos", int pos);
          ("reg", opt reg r); ("slot", int slot);
        ]
  | Early_second_chance { temp; id; pos; src; dst } ->
      obj "early_second_chance"
        [
          ("temp", str temp); ("id", int id); ("pos", int pos);
          ("src", reg src); ("dst", reg dst);
        ]
  | Pref_miss { temp; id; pos; why } ->
      obj "pref_miss"
        [ ("temp", str temp); ("id", int id); ("pos", int pos); ("why", str why) ]
  | Expire { temp; id; pos; reg = r } ->
      obj "expire"
        [ ("temp", str temp); ("id", int id); ("pos", int pos); ("reg", reg r) ]
  | Slot_alloc { temp; id; slot } ->
      obj "slot_alloc" [ ("temp", str temp); ("id", int id); ("slot", int slot) ]
  | Edge { src; dst } -> obj "edge" [ ("src", str src); ("dst", str dst) ]
  | Resolve_store { temp; id; reg = r; slot; cycle } ->
      obj "resolve_store"
        [
          ("temp", str temp); ("id", int id); ("reg", reg r); ("slot", int slot);
          ("cycle", `Bool cycle);
        ]
  | Resolve_load { temp; id; reg = r; slot } ->
      obj "resolve_load"
        [ ("temp", str temp); ("id", int id); ("reg", reg r); ("slot", int slot) ]
  | Resolve_move { temp; id; dst; src; cycle } ->
      obj "resolve_move"
        [
          ("temp", str temp); ("id", int id); ("dst", reg dst); ("src", reg src);
          ("cycle", `Bool cycle);
        ]
  | Pass_begin { pass } -> obj "pass_begin" [ ("pass", str pass) ]
  | Pass_end { pass; changed } ->
      obj "pass_end" [ ("pass", str pass); ("changed", int changed) ]
  | Slot_renumber { fn; from_slot; to_slot } ->
      obj "slot_renumber"
        [ ("fn", str fn); ("from_slot", int from_slot); ("to_slot", int to_slot) ]
  | Downgrade { req; from_algo; to_algo; budget; predicted } ->
      obj "downgrade"
        [
          ("req", str req); ("from", str from_algo); ("to", str to_algo);
          ("budget_s", `Float budget); ("predicted_s", `Float predicted);
        ]

let to_jsonl evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string (json_of_event ev));
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replayed = {
  r_evict_loads : int;
  r_evict_stores : int;
  r_evict_moves : int;
  r_resolve_loads : int;
  r_resolve_stores : int;
  r_resolve_moves : int;
  r_slots : int;
}

let replay evs =
  let el = ref 0 and es = ref 0 and em = ref 0 in
  let rl = ref 0 and rs = ref 0 and rm = ref 0 in
  let slots = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Fn { slots0; _ } -> slots := !slots + slots0
      | Slot_alloc _ -> incr slots
      | Second_chance _ -> incr el
      | Spill_split _ -> incr es
      | Early_second_chance _ -> incr em
      | Resolve_load _ -> incr rl
      | Resolve_store _ -> incr rs
      | Resolve_move _ -> incr rm
      | _ -> ())
    evs;
  {
    r_evict_loads = !el;
    r_evict_stores = !es;
    r_evict_moves = !em;
    r_resolve_loads = !rl;
    r_resolve_stores = !rs;
    r_resolve_moves = !rm;
    r_slots = !slots;
  }

let replay_check evs (stats : Stats.t) =
  let r = replay evs in
  let errs = ref [] in
  let chk name replayed reported =
    if replayed <> reported then
      errs := Printf.sprintf "%s: trace replays %d, Stats reports %d" name replayed reported :: !errs
  in
  chk "evict_loads" r.r_evict_loads stats.evict_loads;
  chk "evict_stores" r.r_evict_stores stats.evict_stores;
  chk "evict_moves" r.r_evict_moves stats.evict_moves;
  chk "resolve_loads" r.r_resolve_loads stats.resolve_loads;
  chk "resolve_stores" r.r_resolve_stores stats.resolve_stores;
  chk "resolve_moves" r.r_resolve_moves stats.resolve_moves;
  chk "slots" r.r_slots stats.slots;
  match !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)

let well_formed ?(strict = false) evs =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* Per-Fn-section state; temp ids restart at 0 in each function. *)
  let in_fn = ref false in
  let known_slots = Hashtbl.create 16 in
  let expired = Hashtbl.create 16 in
  (* id -> pending split position, for the "no double split without an
     intervening assignment or reload" and the "every known-next-ref split
     is followed by a second chance" rules. *)
  let pending_split = Hashtbl.create 16 in
  let reset_section () =
    Hashtbl.reset known_slots;
    Hashtbl.reset expired;
    Hashtbl.reset pending_split
  in
  let end_section fname =
    if strict then
      Hashtbl.iter
        (fun id pos ->
          fail "fn %s: temp #%d split at @%d with a known next reference but never reloaded or reassigned"
            fname id pos)
        pending_split
  in
  let cur_fn = ref "" in
  let require_fn what = if not !in_fn then fail "%s before any fn event" what in
  let require_slot what slot =
    require_fn what;
    if !in_fn && not (Hashtbl.mem known_slots slot) then
      fail "fn %s: %s references slot%d before its slot_alloc" !cur_fn what slot
  in
  let alive what id =
    if strict && Hashtbl.mem expired id then
      fail "fn %s: %s of temp #%d after its expire" !cur_fn what id
  in
  List.iter
    (fun ev ->
      match ev with
      | Fn { name; slots0 } ->
          if !in_fn then end_section !cur_fn;
          reset_section ();
          in_fn := true;
          cur_fn := name;
          for s = 0 to slots0 - 1 do
            Hashtbl.replace known_slots s ()
          done
      | Block _ | Edge _ | Evict_choice _ | Pref_miss _ | Store_elided _ ->
          require_fn "event"
      | Start { id; _ } ->
          require_fn "start";
          alive "start" id
      | Assign { id; _ } ->
          require_fn "assign";
          alive "assign" id;
          Hashtbl.remove pending_split id
      | Spill_split { id; pos; slot; next_ref; _ } ->
          require_slot "spill_split" slot;
          alive "spill_split" id;
          if strict && Hashtbl.mem pending_split id then
            fail "fn %s: temp #%d split twice (at @%d and @%d) with no reload or reassignment between"
              !cur_fn id (Hashtbl.find pending_split id) pos;
          if next_ref <> None then Hashtbl.replace pending_split id pos
      | Second_chance { id; slot; _ } ->
          require_slot "second_chance" slot;
          alive "second_chance" id;
          Hashtbl.remove pending_split id
      | Early_second_chance { id; _ } -> alive "early_second_chance" id
      | Expire { id; _ } ->
          require_fn "expire";
          Hashtbl.replace expired id ();
          Hashtbl.remove pending_split id
      | Slot_alloc { slot; _ } ->
          require_fn "slot_alloc";
          if Hashtbl.mem known_slots slot then
            fail "fn %s: slot%d allocated twice" !cur_fn slot;
          Hashtbl.replace known_slots slot ()
      | Resolve_store { slot; _ } -> require_slot "resolve_store" slot
      | Resolve_load { slot; _ } -> require_slot "resolve_load" slot
      | Resolve_move _ -> require_fn "resolve_move"
      (* Pipeline-level events: legal anywhere, including outside any
         [Fn] section (pre-allocation passes run before the first one;
         a service downgrade is decided before allocation starts). *)
      | Pass_begin _ | Pass_end _ | Slot_renumber _ | Downgrade _ -> ())
    evs;
  if !in_fn then end_section !cur_fn;
  match !err with None -> Ok () | Some e -> Error e
