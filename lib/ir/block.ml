type terminator =
  | Jump of string
  | Branch of {
      op : Instr.cmp;
      a : Operand.t;
      b : Operand.t;
      ifso : string;
      ifnot : string;
    }
  | Ret

type t = {
  label : string;
  mutable body : Instr.t array;
  mutable term : terminator;
  term_uid : int;
}

let make ~label ~body ~term =
  { label; body; term; term_uid = Instr.fresh_uid () }

let label b = b.label
let body b = b.body
let term b = b.term
let term_uid b = b.term_uid
let set_body b instrs = b.body <- instrs
let set_term b t = b.term <- t

let succ_labels b =
  match b.term with
  | Jump l -> [ l ]
  | Branch { ifso; ifnot; _ } -> if ifso = ifnot then [ ifso ] else [ ifso; ifnot ]
  | Ret -> []

let iter_term_uses ~temp ~reg b =
  match b.term with
  | Jump _ | Ret -> ()
  | Branch { a; b = rhs; _ } ->
    Operand.iter ~temp ~reg a;
    Operand.iter ~temp ~reg rhs

let rewrite_term ~use b =
  match b.term with
  | Jump _ | Ret -> ()
  | Branch { op; a; b = rhs; ifso; ifnot } ->
    let f o =
      match o with
      | Operand.Loc l -> Operand.Loc (use l)
      | Operand.Int _ | Operand.Float _ -> o
    in
    b.term <- Branch { op; a = f a; b = f rhs; ifso; ifnot }

let retarget_term b ~from ~to_ =
  match b.term with
  | Jump l -> if l = from then b.term <- Jump to_
  | Branch { op; a; b = rhs; ifso; ifnot } ->
    let ifso = if ifso = from then to_ else ifso in
    let ifnot = if ifnot = from then to_ else ifnot in
    b.term <- Branch { op; a; b = rhs; ifso; ifnot }
  | Ret -> ()

let term_to_buffer buf = function
  | Jump l ->
    Buffer.add_string buf "jump ";
    Buffer.add_string buf l
  | Branch { op; a; b; ifso; ifnot } ->
    Buffer.add_string buf "br.";
    Buffer.add_string buf (Instr.cmp_to_string op);
    Buffer.add_char buf ' ';
    Operand.to_buffer buf a;
    Buffer.add_string buf ", ";
    Operand.to_buffer buf b;
    Buffer.add_string buf " ? ";
    Buffer.add_string buf ifso;
    Buffer.add_string buf " : ";
    Buffer.add_string buf ifnot
  | Ret -> Buffer.add_string buf "ret"

let term_to_string term =
  let buf = Buffer.create 32 in
  term_to_buffer buf term;
  Buffer.contents buf

let pp fmt b =
  Format.fprintf fmt "@[<v 2>%s:" b.label;
  Array.iter (fun i -> Format.fprintf fmt "@,%s" (Instr.to_string i)) b.body;
  Format.fprintf fmt "@,%s@]" (term_to_string b.term)

let copy b =
  { label = b.label; body = Array.copy b.body; term = b.term;
    term_uid = b.term_uid }
