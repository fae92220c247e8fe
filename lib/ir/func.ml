type t = {
  name : string;
  cfg : Cfg.t;
  mutable next_temp : int;
  mutable next_slot : int;
  mutable next_label : int;
}

let create ~name ~cfg ~next_temp =
  { name; cfg; next_temp; next_slot = 0; next_label = 0 }

let name f = f.name
let cfg f = f.cfg
let n_slots f = f.next_slot
let temp_bound f = f.next_temp

let fresh_temp ?name f cls =
  let t = Temp.make ?name ~cls f.next_temp in
  f.next_temp <- f.next_temp + 1;
  t

let fresh_slot f =
  let s = f.next_slot in
  f.next_slot <- s + 1;
  s

let fresh_label ?(hint = "L") f =
  let rec pick () =
    let l = Printf.sprintf ".%s%d" hint f.next_label in
    f.next_label <- f.next_label + 1;
    if Cfg.mem f.cfg l then pick () else l
  in
  pick ()

let iter_instrs f k =
  Cfg.iter_blocks (fun b -> Array.iter k (Block.body b)) f.cfg

let no_reg (_ : Mreg.t) = ()

(* Every temp operand of the function: defs before uses per
   instruction, then the terminator's uses, block by block. *)
let iter_temp_operands f see =
  Cfg.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          Instr.iter_defs ~temp:see ~reg:no_reg i;
          Instr.iter_uses ~temp:see ~reg:no_reg i)
        (Block.body b);
      Block.iter_term_uses ~temp:see ~reg:no_reg b)
    f.cfg

let temps f =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  iter_temp_operands f (fun t ->
      if not (Hashtbl.mem seen (Temp.id t)) then begin
        Hashtbl.add seen (Temp.id t) ();
        acc := t :: !acc
      end);
  List.rev !acc

let n_instrs f =
  let n = ref 0 in
  Cfg.iter_blocks
    (fun b -> n := !n + Array.length (Block.body b) + 1)
    f.cfg;
  !n

let validate f =
  Cfg.validate f.cfg;
  let check_cls_instr i =
    let bad reason =
      raise
        (Cfg.Malformed
           (Printf.sprintf "%s: %s in '%s'" f.name reason (Instr.to_string i)))
    in
    match Instr.desc i with
    | Instr.Move { dst; src } ->
      if not (Rclass.equal (Loc.cls dst) (Operand.cls src)) then
        bad "move class mismatch"
    | Instr.Bin { op; dst; a; b } ->
      let c = Instr.binop_cls op in
      if
        not
          (Rclass.equal (Loc.cls dst) c
          && Rclass.equal (Operand.cls a) c
          && Rclass.equal (Operand.cls b) c)
      then bad "binop class mismatch"
    | Instr.Cmp { op; dst; a; b } ->
      let c = Instr.cmp_operand_cls op in
      if
        not
          (Rclass.equal (Loc.cls dst) Rclass.Int
          && Rclass.equal (Operand.cls a) c
          && Rclass.equal (Operand.cls b) c)
      then bad "cmp class mismatch"
    | Instr.Un { op; dst; src } ->
      let ok =
        match op with
        | Instr.Neg | Instr.Not ->
          Rclass.equal (Loc.cls dst) Rclass.Int
          && Rclass.equal (Operand.cls src) Rclass.Int
        | Instr.Fneg ->
          Rclass.equal (Loc.cls dst) Rclass.Float
          && Rclass.equal (Operand.cls src) Rclass.Float
        | Instr.Itof ->
          Rclass.equal (Loc.cls dst) Rclass.Float
          && Rclass.equal (Operand.cls src) Rclass.Int
        | Instr.Ftoi ->
          Rclass.equal (Loc.cls dst) Rclass.Int
          && Rclass.equal (Operand.cls src) Rclass.Float
      in
      if not ok then bad "unop class mismatch"
    | Instr.Load { base; _ } | Instr.Store { base; _ } ->
      if not (Rclass.equal (Operand.cls base) Rclass.Int) then
        bad "address must be an integer"
    | Instr.Spill_load _ | Instr.Spill_store _ | Instr.Call _ | Instr.Nop ->
      ()
  in
  iter_instrs f check_cls_instr;
  iter_temp_operands f (fun t ->
      if Temp.id t >= f.next_temp then
        raise
          (Cfg.Malformed
             (Printf.sprintf "%s: temp %s out of range" f.name
                (Temp.to_string t))))

let pp fmt f =
  Format.fprintf fmt "@[<v>func %s {@,%a@,}@]" f.name Cfg.pp f.cfg

let copy f =
  {
    name = f.name;
    cfg = Cfg.copy f.cfg;
    next_temp = f.next_temp;
    next_slot = f.next_slot;
    next_label = f.next_label;
  }

let set_slot_count f n =
  if n < 0 then invalid_arg "Func.set_slot_count";
  f.next_slot <- n
