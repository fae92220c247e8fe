type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type unop = Neg | Not | Fneg | Itof | Ftoi

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Feq | Fne | Flt | Fle

type spill_phase = Evict | Resolve
type spill_kind = Spill_ld | Spill_st | Spill_mv

type tag = Original | Spill of { phase : spill_phase; kind : spill_kind }

type desc =
  | Move of { dst : Loc.t; src : Operand.t }
  | Bin of { op : binop; dst : Loc.t; a : Operand.t; b : Operand.t }
  | Un of { op : unop; dst : Loc.t; src : Operand.t }
  | Cmp of { op : cmp; dst : Loc.t; a : Operand.t; b : Operand.t }
  | Load of { dst : Loc.t; base : Operand.t; off : int }
  | Store of { src : Operand.t; base : Operand.t; off : int }
  | Spill_load of { dst : Loc.t; slot : int }
  | Spill_store of { src : Loc.t; slot : int }
  | Call of {
      func : string;
      args : Mreg.t list;
      rets : Mreg.t list;
      clobbers : Mreg.t list;
    }
  | Nop

type t = { uid : int; desc : desc; tag : tag }

(* Atomic so that functions can be allocated from several domains at
   once; uids stay unique program-wide either way. *)
let uid_counter = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add uid_counter 1 + 1

let make ?(tag = Original) desc = { uid = fresh_uid (); desc; tag }
let with_desc t desc = { t with desc }
let with_tag t tag = { t with tag }

let uid t = t.uid
let desc t = t.desc
let tag t = t.tag

let is_spill t = match t.tag with Spill _ -> true | Original -> false

let binop_cls = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra ->
    Rclass.Int
  | Fadd | Fsub | Fmul | Fdiv -> Rclass.Float

let cmp_operand_cls = function
  | Eq | Ne | Lt | Le | Gt | Ge -> Rclass.Int
  | Feq | Fne | Flt | Fle -> Rclass.Float

(* The one definition of operand order: [uses], [defs] and every
   analysis that walks operands go through these. *)
let iter_uses ~temp ~reg t =
  match t.desc with
  | Move { src; _ } | Un { src; _ } -> Operand.iter ~temp ~reg src
  | Bin { a; b; _ } | Cmp { a; b; _ } ->
    Operand.iter ~temp ~reg a;
    Operand.iter ~temp ~reg b
  | Load { base; _ } -> Operand.iter ~temp ~reg base
  | Store { src; base; _ } ->
    Operand.iter ~temp ~reg src;
    Operand.iter ~temp ~reg base
  | Spill_store { src = Loc.Temp x; _ } -> temp x
  | Spill_store { src = Loc.Reg r; _ } -> reg r
  | Call { args; _ } -> List.iter reg args
  | Spill_load _ | Nop -> ()

let iter_defs ~temp ~reg t =
  match t.desc with
  | Move { dst; _ }
  | Bin { dst; _ }
  | Un { dst; _ }
  | Cmp { dst; _ }
  | Load { dst; _ }
  | Spill_load { dst; _ } -> (
    match dst with Loc.Temp x -> temp x | Loc.Reg r -> reg r)
  | Call { clobbers; _ } -> List.iter reg clobbers
  | Store _ | Spill_store _ | Nop -> ()

let map_operand f (o : Operand.t) : Operand.t =
  match o with
  | Operand.Loc l -> Operand.Loc (f l)
  | Operand.Int _ | Operand.Float _ -> o

let rewrite ~use ~def t =
  let desc =
    match t.desc with
    | Move { dst; src } -> Move { dst = def dst; src = map_operand use src }
    | Bin { op; dst; a; b } ->
      Bin { op; dst = def dst; a = map_operand use a; b = map_operand use b }
    | Un { op; dst; src } ->
      Un { op; dst = def dst; src = map_operand use src }
    | Cmp { op; dst; a; b } ->
      Cmp { op; dst = def dst; a = map_operand use a; b = map_operand use b }
    | Load { dst; base; off } ->
      Load { dst = def dst; base = map_operand use base; off }
    | Store { src; base; off } ->
      Store { src = map_operand use src; base = map_operand use base; off }
    | Spill_load { dst; slot } -> Spill_load { dst = def dst; slot }
    | Spill_store { src; slot } -> Spill_store { src = use src; slot }
    | Call _ | Nop -> t.desc
  in
  { t with desc }

let is_move t =
  match t.desc with
  | Move { dst; src = Operand.Loc src } -> Some (dst, src)
  | Move _ | Bin _ | Un _ | Cmp _ | Load _ | Store _ | Spill_load _
  | Spill_store _ | Call _ | Nop ->
    None

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let unop_to_string = function
  | Neg -> "neg"
  | Not -> "not"
  | Fneg -> "fneg"
  | Itof -> "itof"
  | Ftoi -> "ftoi"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Feq -> "feq"
  | Fne -> "fne"
  | Flt -> "flt"
  | Fle -> "fle"

let tag_to_buffer buf = function
  | Original -> ()
  | Spill { phase; kind } ->
    Buffer.add_string buf
      (match phase with
      | Evict -> "  ; spill:evict-"
      | Resolve -> "  ; spill:resolve-");
    Buffer.add_string buf
      (match kind with
      | Spill_ld -> "load"
      | Spill_st -> "store"
      | Spill_mv -> "move")

let to_buffer ?(clobbers = false) buf t =
  let str = Buffer.add_string buf in
  let int i = str (string_of_int i) in
  let loc = Loc.to_buffer buf and opnd = Operand.to_buffer buf in
  let regs sep = function
    | [] -> ()
    | r :: rs ->
      Mreg.to_buffer buf r;
      List.iter
        (fun r ->
          str sep;
          Mreg.to_buffer buf r)
        rs
  in
  let assign dst =
    loc dst;
    str " := "
  in
  (match t.desc with
  | Move { dst; src } ->
    assign dst;
    opnd src
  | Bin { op; dst; a; b } ->
    assign dst;
    str (binop_to_string op);
    str " ";
    opnd a;
    str ", ";
    opnd b
  | Un { op; dst; src } ->
    assign dst;
    str (unop_to_string op);
    str " ";
    opnd src
  | Cmp { op; dst; a; b } ->
    assign dst;
    str "cmp.";
    str (cmp_to_string op);
    str " ";
    opnd a;
    str ", ";
    opnd b
  | Load { dst; base; off } ->
    assign dst;
    str "load ";
    opnd base;
    str "[";
    int off;
    str "]"
  | Store { src; base; off } ->
    str "store ";
    opnd src;
    str ", ";
    opnd base;
    str "[";
    int off;
    str "]"
  | Spill_load { dst; slot } ->
    assign dst;
    str "sload slot";
    int slot
  | Spill_store { src; slot } ->
    str "sstore ";
    loc src;
    str ", slot";
    int slot
  | Call { func; args; rets; clobbers = clobbered } ->
    str "call ";
    str func;
    str "(";
    regs ", " args;
    str ")";
    if rets <> [] then begin
      str " -> ";
      regs ", " rets
    end;
    if clobbers then begin
      str " !";
      List.iter
        (fun r ->
          str " ";
          Mreg.to_buffer buf r)
        clobbered
    end
  | Nop -> str "nop");
  tag_to_buffer buf t.tag

let to_string t =
  let buf = Buffer.create 32 in
  to_buffer buf t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
