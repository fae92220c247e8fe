open Lsra_ir

(* Textual IR: a printable, parseable concrete syntax for whole programs.

   program main=<name> heap=<words>

   func <name> {
     temp <name>.<id> <int|float>
     block <label>:
       <instr>
       ...
       <terminator>
   }

   Instructions follow {!Instr.to_buffer}, with calls extended by an
   explicit clobber list:

     call foo($r0, $f1) -> $r0 ! $r0 $r1 $f0

   Comments run from ';' to end of line; a comment of the form
   `; spill:<phase>-<kind>` restores the spill provenance tag. *)

exception Parse_error of { line : int; msg : string }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let print_func buf f =
  let str = Buffer.add_string buf in
  str "func ";
  str (Func.name f);
  str " {\n";
  List.iter
    (fun t ->
      str "  temp ";
      Temp.to_buffer buf t;
      str " ";
      str (Rclass.to_string (Temp.cls t));
      str "\n")
    (Func.temps f);
  Cfg.iter_blocks
    (fun b ->
      str "  block ";
      str (Block.label b);
      str ":\n";
      Array.iter
        (fun i ->
          str "    ";
          Instr.to_buffer ~clobbers:true buf i;
          str "\n")
        (Block.body b);
      str "    ";
      Block.term_to_buffer buf (Block.term b);
      str "\n")
    (Func.cfg f);
  str "}\n"

let to_string prog =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "program main=";
  Buffer.add_string buf (Program.main prog);
  Buffer.add_string buf " heap=";
  Buffer.add_string buf (string_of_int (Program.heap_words prog));
  Buffer.add_string buf "\n\n";
  List.iter
    (fun (_, f) ->
      print_func buf f;
      Buffer.add_char buf '\n')
    (Program.funcs prog);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)

(* The parser makes one pass over the text. The lexer keeps one token of
   lookahead in the mutable fields of the parser state and builds no
   substring for it: words are compared in place and numbers are
   accumulated in place. Strings are made only where the IR keeps them:
   function names, labels, call targets and temp names at their
   declaration. *)

let max_index = 1 lsl 20

type kind =
  | Ident (* the text in [start, stop) *)
  | Int (* [ival] *)
  | Float (* [fval] *)
  | Reg (* [reg] *)
  | Punct (* [punct], one of  { } ( ) , : ? ! [ ] = *)
  | Assign (* := *)
  | Arrow (* -> *)
  | Comment (* the text after the ';' in [start, stop) *)
  | Newline
  | Eof

(* A declared temp of the function being read, stored at its id. A use
   must repeat [spelled], the declaration's spelling, byte for byte. *)
type decl = { fn : int; spelled : string; loc : Loc.t; opnd : Operand.t }

let no_decl =
  let loc = Loc.Temp (Temp.make ~cls:Rclass.Int 0) in
  { fn = -1; spelled = ""; loc; opnd = Operand.Loc loc }

type state = {
  text : string;
  mutable pos : int; (* where lexing resumes: the end of the current token *)
  mutable line : int; (* the line at [pos] *)
  (* the current token *)
  mutable kind : kind;
  mutable tok_line : int;
  mutable start : int;
  mutable stop : int;
  mutable ival : int;
  mutable fval : float;
  mutable reg : Mreg.t;
  mutable punct : char;
  (* the function being read *)
  mutable fn : int; (* functions begun so far; tags the live [decls] *)
  mutable decls : decl array;
  mutable max_temp : int;
  mutable max_slot : int;
  (* the body of the block being read *)
  mutable body : Instr.t array;
  mutable n_body : int;
}

let fail line msg = raise (Parse_error { line; msg })
let is_blank c = c = ' ' || c = '\t' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || is_digit c || c = '_' || c = '.' || c = '-'

(* An error about the current token: its line, 0 at the end of input. *)
let fail_here st msg =
  match st.kind with Eof -> fail 0 msg | _ -> fail st.tok_line msg

(* An error found once the current token has been read is reported at
   the line of the token after it, 0 if there is none. *)
let fail_after st msg =
  let text = st.text in
  let i = ref st.pos in
  while !i < String.length text && is_blank text.[!i] do
    incr i
  done;
  fail (if !i < String.length text then st.line else 0) msg

(* The decimal number spelled by text[i, j): -1 if that is empty or holds
   a non-digit, something above [max_index] if it is too large. *)
let index_in text i j =
  if i >= j then -1
  else begin
    let acc = ref 0 and k = ref i in
    while !k < j && !acc >= 0 do
      let c = text.[!k] in
      if is_digit c then begin
        if !acc <= max_index then acc := (!acc * 10) + Char.code c - 48;
        incr k
      end
      else acc := -1
    done;
    !acc
  end

let out_of_range st i j =
  fail st.line
    (Printf.sprintf "integer literal out of range %S"
       (String.sub st.text i (j - i)))

let float_lit st f =
  st.kind <- Float;
  st.fval <- f

(* A number token in text[i, j). Plain decimals are accumulated in place
   (negated, so that [min_int] fits); other spellings (floats, and
   integers in any syntax [int_of_string] reads) go through a substring. *)
let lex_number st i j =
  let text = st.text in
  let first = if text.[i] = '-' then i + 1 else i in
  let plain = ref true in
  for k = first to j - 1 do
    if not (is_digit text.[k]) then plain := false
  done;
  if !plain then begin
    let acc = ref 0 in
    for k = first to j - 1 do
      let d = Char.code text.[k] - 48 in
      if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10))
      then out_of_range st i j;
      acc := (!acc * 10) - d
    done;
    if first = i then begin
      if !acc = min_int then out_of_range st i j;
      acc := - !acc
    end;
    st.kind <- Int;
    st.ival <- !acc
  end
  else begin
    let s = String.sub text i (j - i) in
    let is_float =
      String.contains s '.'
      || (String.length s > 1 && String.contains s 'p')
      || String.contains s 'e'
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> float_lit st f
      | None -> fail st.line (Printf.sprintf "bad float literal %S" s)
    else
      match int_of_string_opt s with
      | Some k ->
        st.kind <- Int;
        st.ival <- k
      | None -> (
        (* something like 0x... or an ident starting with a digit is
           not produced by the printer; try float as a fallback *)
        match float_of_string_opt s with
        | Some f -> float_lit st f
        | None -> fail st.line (Printf.sprintf "bad numeric literal %S" s))
  end

let finish st kind j =
  st.kind <- kind;
  st.stop <- j;
  st.pos <- j

(* Reads the next token into [st]; lexing errors name the line they are
   on. *)
let advance st =
  let text = st.text in
  let n = String.length text in
  let i = ref st.pos in
  while !i < n && is_blank text.[!i] do
    incr i
  done;
  let i = !i in
  st.tok_line <- st.line;
  st.start <- i;
  if i >= n then begin
    st.kind <- Eof;
    st.pos <- n
  end
  else begin
    let c = text.[i] in
    if c = '\n' then begin
      finish st Newline (i + 1);
      st.line <- st.line + 1
    end
    else if c = ';' then begin
      let j = ref (i + 1) in
      while !j < n && text.[!j] <> '\n' do
        incr j
      done;
      st.start <- i + 1;
      finish st Comment !j
    end
    else if c = '$' then begin
      (* $r12 or $f3 *)
      if i + 1 >= n then fail st.line "truncated register";
      let cls =
        match text.[i + 1] with
        | 'r' -> Rclass.Int
        | 'f' -> Rclass.Float
        | _ -> fail st.line "bad register class"
      in
      let j = ref (i + 2) in
      while !j < n && is_digit text.[!j] do
        incr j
      done;
      if !j = i + 2 then fail st.line "register needs an index";
      let idx = index_in text (i + 2) !j in
      if idx > max_index then
        fail st.line
          (Printf.sprintf "register index above %d in %s" max_index
             (String.sub text i (!j - i)));
      st.reg <- Mreg.make ~cls idx;
      finish st Reg !j
    end
    else if c = ':' && i + 1 < n && text.[i + 1] = '=' then
      finish st Assign (i + 2)
    else if c = '-' && i + 1 < n && text.[i + 1] = '>' then
      finish st Arrow (i + 2)
    else if is_digit c || (c = '-' && i + 1 < n && is_digit text.[i + 1])
    then begin
      let j = ref (i + 1) in
      while
        !j < n
        &&
        let d = text.[!j] in
        is_ident_char d || d = '+'
        || (d = '-' && (text.[!j - 1] = 'p' || text.[!j - 1] = 'e'))
      do
        incr j
      done;
      lex_number st i !j;
      finish st st.kind !j
    end
    else if is_ident_char c then begin
      let j = ref (i + 1) in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      finish st Ident !j
    end
    else
      match c with
      | '{' | '}' | '(' | ')' | ',' | ':' | '?' | '!' | '[' | ']' | '=' ->
        st.punct <- c;
        finish st Punct (i + 1)
      | _ -> fail st.line (Printf.sprintf "unexpected character %C" c)
  end

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let tok_string st = String.sub st.text st.start (st.stop - st.start)

(* text[at + k] = w.[k] for every k from [k] on *)
let rec same text at w k =
  k = String.length w || (text.[at + k] = w.[k] && same text at w (k + 1))

(* The current token is the word [w]. *)
let is_word st w =
  match st.kind with
  | Ident -> st.stop - st.start = String.length w && same st.text st.start w 0
  | _ -> false

(* The current token is a word that starts with [p] and is longer. *)
let has_prefix st p =
  match st.kind with
  | Ident -> st.stop - st.start > String.length p && same st.text st.start p 0
  | _ -> false

(* The index in [table] of the current word less its first [skip]
   characters, -1 if absent. *)
let rec find_from table text at len k =
  if k = Array.length table then -1
  else
    let w = fst table.(k) in
    if String.length w = len && same text at w 0 then k
    else find_from table text at len (k + 1)

let find table st skip =
  find_from table st.text (st.start + skip) (st.stop - st.start - skip) 0

let binops =
  Instr.
    [|
      ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("rem", Rem);
      ("and", And); ("or", Or); ("xor", Xor); ("sll", Sll); ("srl", Srl);
      ("sra", Sra); ("fadd", Fadd); ("fsub", Fsub); ("fmul", Fmul);
      ("fdiv", Fdiv);
    |]

let unops =
  Instr.
    [|
      ("neg", Neg); ("not", Not); ("fneg", Fneg); ("itof", Itof);
      ("ftoi", Ftoi);
    |]

let cmps =
  Instr.
    [|
      ("eq", Eq); ("ne", Ne); ("lt", Lt); ("le", Le); ("gt", Gt); ("ge", Ge);
      ("feq", Feq); ("fne", Fne); ("flt", Flt); ("fle", Fle);
    |]

(* the comments that restore a spill provenance tag *)
let spill_tags =
  Instr.
    [|
      ("spill:evict-load", Spill { phase = Evict; kind = Spill_ld });
      ("spill:evict-store", Spill { phase = Evict; kind = Spill_st });
      ("spill:evict-move", Spill { phase = Evict; kind = Spill_mv });
      ("spill:resolve-load", Spill { phase = Resolve; kind = Spill_ld });
      ("spill:resolve-store", Spill { phase = Resolve; kind = Spill_st });
      ("spill:resolve-move", Spill { phase = Resolve; kind = Spill_mv });
    |]

(* The spill tag the current comment spells, once trimmed of the blanks
   [String.trim] removes; [Original] for any other comment. *)
let spill_tag st =
  let is_space c = is_blank c || c = '\012' in
  while st.start < st.stop && is_space st.text.[st.start] do
    st.start <- st.start + 1
  done;
  while st.stop > st.start && is_space st.text.[st.stop - 1] do
    st.stop <- st.stop - 1
  done;
  match find spill_tags st 0 with -1 -> Instr.Original | k -> snd spill_tags.(k)

let need st =
  match st.kind with Eof -> fail 0 "unexpected end of input" | _ -> ()

let skip_newlines st =
  while match st.kind with Newline | Comment -> true | _ -> false do
    advance st
  done

let expect st c =
  need st;
  match st.kind with
  | Punct when st.punct = c -> advance st
  | _ -> fail_after st (Printf.sprintf "expected '%c'" c)

let expect_assign st =
  need st;
  match st.kind with Assign -> advance st | _ -> fail_after st "expected ':='"

(* Reads a word the IR keeps. *)
let ident st what =
  need st;
  match st.kind with
  | Ident ->
    let s = tok_string st in
    advance st;
    s
  | _ -> fail_after st ("expected " ^ what)

(* The id a temp spelled text[i, j) must have: the digits after its last
   '.', or after a leading 't'. Result as {!index_in}. *)
let rec last_dot text i k =
  if k < i then -1 else if text.[k] = '.' then k else last_dot text i (k - 1)

let temp_id text i j =
  match last_dot text i (j - 1) with
  | -1 -> if j - i > 1 && text.[i] = 't' then index_in text (i + 1) j else -1
  | k -> index_in text (k + 1) j

(* Declares the temp spelled text[i, j), once its class token is read. *)
let declare st i j cls =
  let spelled = String.sub st.text i (j - i) in
  let id = temp_id st.text i j in
  if id < 0 then
    fail_after st (Printf.sprintf "cannot infer id of temp %s" spelled);
  if id > max_index then
    fail_after st (Printf.sprintf "temp id above %d in %s" max_index spelled);
  let n = Array.length st.decls in
  if id >= n then begin
    let size = min (max_index + 1) (max (id + 1) (2 * n)) in
    let grown = Array.make size no_decl in
    Array.blit st.decls 0 grown 0 n;
    st.decls <- grown
  end;
  let d = st.decls.(id) in
  if d.fn = st.fn then
    fail_after st
      (if d.spelled = spelled then
         Printf.sprintf "duplicate temporary %s" spelled
       else
         Printf.sprintf "temporaries %s and %s share id %d" d.spelled spelled
           id);
  let name =
    match String.rindex_opt spelled '.' with
    | Some k -> Some (String.sub spelled 0 k)
    | None -> None
  in
  let loc = Loc.Temp (Temp.make ?name ~cls id) in
  st.decls.(id) <- { fn = st.fn; spelled; loc; opnd = Operand.Loc loc };
  if id > st.max_temp then st.max_temp <- id

(* The declaration of the temp the current word names. *)
let lookup st =
  let id = temp_id st.text st.start st.stop in
  let d =
    if id >= 0 && id < Array.length st.decls then st.decls.(id) else no_decl
  in
  if d.fn = st.fn
     && String.length d.spelled = st.stop - st.start
     && same st.text st.start d.spelled 0
  then d
  else fail_after st (Printf.sprintf "undeclared temporary %s" (tok_string st))

(* The printer's [%h] spellings of non-finite floats. No temp is spelled
   like them: a temp's name ends in its id. *)
let float_word st =
  if is_word st "infinity" || is_word st "-infinity" || is_word st "nan"
     || is_word st "-nan"
  then Some (float_of_string (tok_string st))
  else None

let parse_loc st =
  need st;
  match st.kind with
  | Reg ->
    let r = st.reg in
    advance st;
    Loc.Reg r
  | Ident ->
    let d = lookup st in
    advance st;
    d.loc
  | _ -> fail_after st "expected a register or temporary"

let parse_operand st =
  match st.kind with
  | Int ->
    let k = st.ival in
    advance st;
    Operand.Int k
  | Float ->
    let f = st.fval in
    advance st;
    Operand.Float f
  | Ident -> (
    match float_word st with
    | Some f ->
      advance st;
      Operand.Float f
    | None ->
      let d = lookup st in
      advance st;
      d.opnd)
  | _ -> Operand.Loc (parse_loc st)

let parse_offset st =
  need st;
  match st.kind with
  | Int ->
    let k = st.ival in
    advance st;
    k
  | _ -> fail_after st "expected an offset"

(* slotN; tracks the largest slot of the function *)
let parse_slot st =
  need st;
  if not (has_prefix st "slot") then fail_after st "expected slotN";
  let n = index_in st.text (st.start + 4) st.stop in
  if n < 0 then fail_after st "expected slotN";
  if n > max_index then
    fail_after st
      (Printf.sprintf "slot number above %d in %s" max_index (tok_string st));
  if n > st.max_slot then st.max_slot <- n;
  advance st;
  n

(* `a, b` *)
let parse_pair st =
  let a = parse_operand st in
  expect st ',';
  let b = parse_operand st in
  (a, b)

(* parse the right-hand side of `lhs := ...` *)
let parse_rhs st (dst : Loc.t) =
  need st;
  match st.kind with
  | Int | Float | Reg -> Instr.Move { dst; src = parse_operand st }
  | Ident -> (
    match find binops st 0 with
    | -1 -> (
      match find unops st 0 with
      | -1 ->
        if has_prefix st "cmp." then begin
          match find cmps st 4 with
          | -1 ->
            fail_after st
              (Printf.sprintf "unknown comparison %s" (tok_string st))
          | k ->
            advance st;
            let a, b = parse_pair st in
            Instr.Cmp { op = snd cmps.(k); dst; a; b }
        end
        else if is_word st "load" then begin
          advance st;
          let base = parse_operand st in
          expect st '[';
          let off = parse_offset st in
          expect st ']';
          Instr.Load { dst; base; off }
        end
        else if is_word st "sload" then begin
          advance st;
          Instr.Spill_load { dst; slot = parse_slot st }
        end
        else Instr.Move { dst; src = parse_operand st }
      | k ->
        advance st;
        Instr.Un { op = snd unops.(k); dst; src = parse_operand st })
    | k ->
      advance st;
      let a, b = parse_pair st in
      Instr.Bin { op = snd binops.(k); dst; a; b })
  | _ -> fail_after st "bad instruction right-hand side"

(* `f($r1, $r2) -> $r0 ! $r0 $r1 ...`, after the `call` *)
let parse_call st =
  let func = ident st "function name" in
  expect st '(';
  let args = ref [] in
  (match st.kind with
  | Punct when st.punct = ')' -> advance st
  | Eof -> fail 0 "unterminated call"
  | _ ->
    let rec go () =
      need st;
      (match st.kind with
      | Reg ->
        args := st.reg :: !args;
        advance st
      | _ -> fail_after st "call arguments must be registers");
      need st;
      match st.kind with
      | Punct when st.punct = ',' ->
        advance st;
        go ()
      | Punct when st.punct = ')' -> advance st
      | _ -> fail_after st "expected ',' or ')'"
    in
    go ());
  let rets = ref [] in
  (match st.kind with
  | Arrow ->
    advance st;
    let rec go () =
      need st;
      (match st.kind with
      | Reg ->
        rets := st.reg :: !rets;
        advance st
      | _ -> fail_after st "call results must be registers");
      match st.kind with
      | Punct when st.punct = ',' ->
        advance st;
        go ()
      | _ -> ()
    in
    go ()
  | _ -> ());
  let clobbers = ref [] in
  (match st.kind with
  | Punct when st.punct = '!' ->
    advance st;
    while match st.kind with Reg -> true | _ -> false do
      clobbers := st.reg :: !clobbers;
      advance st
    done
  | _ -> ());
  Instr.Call
    {
      func;
      args = List.rev !args;
      rets = List.rev !rets;
      clobbers = List.rev !clobbers;
    }

(* The terminator the current line spells, if it spells one. *)
let parse_term st =
  if is_word st "jump" then begin
    advance st;
    Some (Block.Jump (ident st "label"))
  end
  else if is_word st "ret" then begin
    advance st;
    Some Block.Ret
  end
  else if has_prefix st "br." then begin
    match find cmps st 3 with
    | -1 -> fail_after st "unknown branch comparison"
    | k ->
      advance st;
      let a, b = parse_pair st in
      expect st '?';
      let ifso = ident st "label" in
      expect st ':';
      let ifnot = ident st "label" in
      Some (Block.Branch { op = snd cmps.(k); a; b; ifso; ifnot })
  end
  else None

(* one instruction line, without its end *)
let parse_instr st =
  need st;
  match st.kind with
  | Ident ->
    if is_word st "call" then begin
      advance st;
      parse_call st
    end
    else if is_word st "nop" then begin
      advance st;
      Instr.Nop
    end
    else if is_word st "store" then begin
      advance st;
      let src = parse_operand st in
      expect st ',';
      let base = parse_operand st in
      expect st '[';
      let off = parse_offset st in
      expect st ']';
      Instr.Store { src; base; off }
    end
    else if is_word st "sstore" then begin
      advance st;
      let src = parse_loc st in
      expect st ',';
      Instr.Spill_store { src; slot = parse_slot st }
    end
    else begin
      (* assignment to a temp *)
      let dst = (lookup st).loc in
      advance st;
      expect_assign st;
      parse_rhs st dst
    end
  | Reg ->
    let dst = Loc.Reg st.reg in
    advance st;
    expect_assign st;
    parse_rhs st dst
  | _ -> fail_after st "bad line"

(* Reads an optional trailing `; spill:...` comment and the newline. *)
let finish_line st =
  let tag =
    match st.kind with
    | Comment ->
      let tag = spill_tag st in
      advance st;
      tag
    | _ -> Instr.Original
  in
  (match st.kind with
  | Newline -> advance st
  | Eof -> ()
  | _ -> fail_here st "expected end of line");
  tag

let push st i =
  if st.n_body = Array.length st.body then begin
    let grown = Array.make (max 16 (2 * st.n_body)) i in
    Array.blit st.body 0 grown 0 st.n_body;
    st.body <- grown
  end;
  st.body.(st.n_body) <- i;
  st.n_body <- st.n_body + 1

(* The lines of a block up to its terminator, which it returns. *)
let rec parse_lines st =
  match parse_term st with
  | Some term ->
    ignore (finish_line st);
    term
  | None ->
    let desc = parse_instr st in
    let tag = finish_line st in
    push st (Instr.make ~tag desc);
    skip_newlines st;
    parse_lines st

let parse_func st =
  let name = ident st "function name" in
  expect st '{';
  skip_newlines st;
  st.fn <- st.fn + 1;
  st.max_temp <- -1;
  st.max_slot <- -1;
  (* temp declarations *)
  while is_word st "temp" do
    advance st;
    need st;
    (match st.kind with Ident -> () | _ -> fail_after st "expected temp name");
    let i = st.start and j = st.stop in
    advance st;
    need st;
    let cls =
      match st.kind with
      | Ident ->
        if is_word st "int" then Rclass.Int
        else if is_word st "float" then Rclass.Float
        else fail_after st (Printf.sprintf "unknown class %s" (tok_string st))
      | _ -> fail_after st "expected class"
    in
    declare st i j cls;
    advance st;
    skip_newlines st
  done;
  (* blocks *)
  let rec blocks acc =
    skip_newlines st;
    match st.kind with
    | Ident when is_word st "block" ->
      advance st;
      let label = ident st "label" in
      expect st ':';
      skip_newlines st;
      st.n_body <- 0;
      let term = parse_lines st in
      let body = Array.sub st.body 0 st.n_body in
      blocks (Block.make ~label ~body ~term :: acc)
    | Punct when st.punct = '}' ->
      advance st;
      List.rev acc
    | Eof -> fail 0 "unterminated function"
    | _ -> fail_here st "expected 'block' or '}'"
  in
  match blocks [] with
  | [] -> fail_here st "function with no blocks"
  | first :: _ as bs ->
    let cfg = Cfg.create ~entry:(Block.label first) bs in
    let f = Func.create ~name ~cfg ~next_temp:(st.max_temp + 1) in
    Func.set_slot_count f (st.max_slot + 1);
    f

let of_string text =
  let st =
    {
      text;
      pos = 0;
      line = 1;
      kind = Eof;
      tok_line = 1;
      start = 0;
      stop = 0;
      ival = 0;
      fval = 0.;
      reg = Mreg.make ~cls:Rclass.Int 0;
      punct = ' ';
      fn = 0;
      decls = Array.make 64 no_decl;
      max_temp = -1;
      max_slot = -1;
      body = [||];
      n_body = 0;
    }
  in
  advance st;
  skip_newlines st;
  need st;
  if is_word st "program" then advance st
  else fail_after st "expected 'program'";
  let main = ref None and heap = ref 65536 in
  let rec header () =
    if is_word st "main" then begin
      advance st;
      expect st '=';
      main := Some (ident st "main function name");
      header ()
    end
    else if is_word st "heap" then begin
      advance st;
      expect st '=';
      need st;
      (match st.kind with
      | Int ->
        heap := st.ival;
        advance st
      | _ -> fail_after st "expected a heap size");
      header ()
    end
  in
  header ();
  let rec funcs acc =
    skip_newlines st;
    match st.kind with
    | Eof -> List.rev acc
    | Ident when is_word st "func" ->
      advance st;
      let f = parse_func st in
      funcs ((Func.name f, f) :: acc)
    | _ -> fail_here st "expected 'func'"
  in
  let funcs = funcs [] in
  let main =
    match !main with
    | Some m -> m
    | None -> fail 0 "missing main= in program header"
  in
  let prog = Program.create ~heap_words:!heap ~main funcs in
  Program.validate prog;
  prog
