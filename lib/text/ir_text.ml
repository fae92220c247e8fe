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

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Reg_lit of Mreg.t
  | Punct of char (* one of  { } ( ) , : ? ! [ ] *)
  | Assign (* := *)
  | Arrow (* -> *)
  | Comment of string
  | Newline

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let tokenize text =
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let err msg = raise (Parse_error { line = !line; msg }) in
  let push t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      push Newline;
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' then begin
      let j = ref !i in
      while !j < n && text.[!j] <> '\n' do
        incr j
      done;
      push (Comment (String.trim (String.sub text (!i + 1) (!j - !i - 1))));
      i := !j
    end
    else if c = '$' then begin
      (* $r12 or $f3 *)
      if !i + 1 >= n then err "truncated register";
      let cls =
        match text.[!i + 1] with
        | 'r' -> Rclass.Int
        | 'f' -> Rclass.Float
        | _ -> err "bad register class"
      in
      let j = ref (!i + 2) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j = !i + 2 then err "register needs an index";
      push (Reg_lit (Mreg.make ~cls (int_of_string (String.sub text (!i + 2) (!j - !i - 2)))));
      i := !j
    end
    else if c = ':' && !i + 1 < n && text.[!i + 1] = '=' then begin
      push Assign;
      i := !i + 2
    end
    else if c = '-' && !i + 1 < n && text.[!i + 1] = '>' then begin
      push Arrow;
      i := !i + 2
    end
    else if
      (c >= '0' && c <= '9')
      || (c = '-' && !i + 1 < n && text.[!i + 1] >= '0' && text.[!i + 1] <= '9')
    then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_ident_char text.[!j] || text.[!j] = '+'
           || (text.[!j] = '-' && !j > 0 && (text.[!j - 1] = 'p' || text.[!j - 1] = 'e')))
      do
        incr j
      done;
      let s = String.sub text !i (!j - !i) in
      i := !j;
      let is_float =
        String.contains s '.'
        || (String.length s > 1 && String.contains s 'p')
        || String.contains s 'e'
      in
      if is_float then
        match float_of_string_opt s with
        | Some f -> push (Float_lit f)
        | None -> err (Printf.sprintf "bad float literal %S" s)
      else
        (match int_of_string_opt s with
        | Some k -> push (Int_lit k)
        | None -> (
          (* something like 0x... or an ident starting with a digit is
             not produced by the printer; try float as a fallback *)
          match float_of_string_opt s with
          | Some f -> push (Float_lit f)
          | None -> err (Printf.sprintf "bad numeric literal %S" s)))
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      push (Ident (String.sub text !i (!j - !i)));
      i := !j
    end
    else if String.contains "{}(),:?![]=" c then begin
      push (Punct c);
      incr i
    end
    else err (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type parser_state = {
  mutable toks : (token * int) list;
  mutable temps : (string, Temp.t) Hashtbl.t;
  mutable max_temp : int;
}

let perr st msg =
  let line = match st.toks with (_, l) :: _ -> l | [] -> 0 in
  raise (Parse_error { line; msg })

let peek st = match st.toks with (t, _) :: _ -> Some t | [] -> None

let next st =
  match st.toks with
  | (t, _) :: rest ->
    st.toks <- rest;
    t
  | [] -> raise (Parse_error { line = 0; msg = "unexpected end of input" })

let skip_newlines st =
  let rec go () =
    match peek st with
    | Some Newline | Some (Comment _) ->
      ignore (next st);
      go ()
    | Some _ | None -> ()
  in
  go ()

let expect_ident st what =
  match next st with
  | Ident s -> s
  | _ -> perr st (Printf.sprintf "expected %s" what)

let expect st tok what =
  let t = next st in
  if t <> tok then perr st (Printf.sprintf "expected %s" what)

let lookup_temp st name =
  match Hashtbl.find_opt st.temps name with
  | Some t -> t
  | None -> perr st (Printf.sprintf "undeclared temporary %s" name)

let parse_loc st =
  match next st with
  | Reg_lit r -> Loc.Reg r
  | Ident name -> Loc.Temp (lookup_temp st name)
  | _ -> perr st "expected a register or temporary"

let parse_operand st =
  match peek st with
  | Some (Int_lit _) -> (
    match next st with Int_lit k -> Operand.Int k | _ -> assert false)
  | Some (Float_lit _) -> (
    match next st with Float_lit f -> Operand.Float f | _ -> assert false)
  | Some _ | None -> Operand.Loc (parse_loc st)

let binop_of_string = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "rem" -> Some Instr.Rem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "sll" -> Some Instr.Sll
  | "srl" -> Some Instr.Srl
  | "sra" -> Some Instr.Sra
  | "fadd" -> Some Instr.Fadd
  | "fsub" -> Some Instr.Fsub
  | "fmul" -> Some Instr.Fmul
  | "fdiv" -> Some Instr.Fdiv
  | _ -> None

let unop_of_string = function
  | "neg" -> Some Instr.Neg
  | "not" -> Some Instr.Not
  | "fneg" -> Some Instr.Fneg
  | "itof" -> Some Instr.Itof
  | "ftoi" -> Some Instr.Ftoi
  | _ -> None

let cmp_of_string = function
  | "eq" -> Some Instr.Eq
  | "ne" -> Some Instr.Ne
  | "lt" -> Some Instr.Lt
  | "le" -> Some Instr.Le
  | "gt" -> Some Instr.Gt
  | "ge" -> Some Instr.Ge
  | "feq" -> Some Instr.Feq
  | "fne" -> Some Instr.Fne
  | "flt" -> Some Instr.Flt
  | "fle" -> Some Instr.Fle
  | _ -> None

let tag_of_comment c =
  if String.length c >= 6 && String.sub c 0 6 = "spill:" then
    let rest = String.sub c 6 (String.length c - 6) in
    match String.split_on_char '-' rest with
    | [ p; k ] ->
      let phase =
        match p with
        | "evict" -> Some Instr.Evict
        | "resolve" -> Some Instr.Resolve
        | _ -> None
      in
      let kind =
        match k with
        | "load" -> Some Instr.Spill_ld
        | "store" -> Some Instr.Spill_st
        | "move" -> Some Instr.Spill_mv
        | _ -> None
      in
      (match phase, kind with
      | Some phase, Some kind -> Some (Instr.Spill { phase; kind })
      | _, _ -> None)
    | _ -> None
  else None

(* Reads an optional trailing `; spill:...` comment and newline. *)
let finish_line st =
  let tag = ref Instr.Original in
  (match peek st with
  | Some (Comment c) ->
    ignore (next st);
    (match tag_of_comment c with Some t -> tag := t | None -> ())
  | Some _ | None -> ());
  (match peek st with
  | Some Newline -> ignore (next st)
  | Some _ -> perr st "expected end of line"
  | None -> ());
  !tag

(* parse the right-hand side of `lhs := ...` *)
let parse_rhs st (dst : Loc.t) =
  match next st with
  | Int_lit k -> Instr.Move { dst; src = Operand.Int k }
  | Float_lit f -> Instr.Move { dst; src = Operand.Float f }
  | Reg_lit r -> Instr.Move { dst; src = Operand.Loc (Loc.Reg r) }
  | Ident word -> (
    match binop_of_string word with
    | Some op ->
      let a = parse_operand st in
      expect st (Punct ',') "','";
      let b = parse_operand st in
      Instr.Bin { op; dst; a; b }
    | None -> (
      match unop_of_string word with
      | Some op ->
        let src = parse_operand st in
        Instr.Un { op; dst; src }
      | None ->
        if String.length word > 4 && String.sub word 0 4 = "cmp." then begin
          match cmp_of_string (String.sub word 4 (String.length word - 4)) with
          | Some op ->
            let a = parse_operand st in
            expect st (Punct ',') "','";
            let b = parse_operand st in
            Instr.Cmp { op; dst; a; b }
          | None -> perr st (Printf.sprintf "unknown comparison %s" word)
        end
        else if word = "load" then begin
          let base = parse_operand st in
          expect st (Punct '[') "'['";
          let off =
            match next st with
            | Int_lit k -> k
            | _ -> perr st "expected an offset"
          in
          expect st (Punct ']') "']'";
          Instr.Load { dst; base; off }
        end
        else if word = "sload" then begin
          match next st with
          | Ident s when String.length s > 4 && String.sub s 0 4 = "slot" ->
            Instr.Spill_load
              { dst; slot = int_of_string (String.sub s 4 (String.length s - 4)) }
          | _ -> perr st "expected slotN"
        end
        else
          (* plain move from a temp *)
          Instr.Move { dst; src = Operand.Loc (Loc.Temp (lookup_temp st word)) }))
  | _ -> perr st "bad instruction right-hand side"

let parse_call st =
  let func = expect_ident st "function name" in
  expect st (Punct '(') "'('";
  let args = ref [] in
  (match peek st with
  | Some (Punct ')') -> ignore (next st)
  | Some _ ->
    let rec go () =
      (match next st with
      | Reg_lit r -> args := r :: !args
      | _ -> perr st "call arguments must be registers");
      match next st with
      | Punct ',' -> go ()
      | Punct ')' -> ()
      | _ -> perr st "expected ',' or ')'"
    in
    go ()
  | None -> perr st "unterminated call");
  let rets = ref [] in
  (match peek st with
  | Some Arrow ->
    ignore (next st);
    let rec go () =
      (match next st with
      | Reg_lit r -> rets := r :: !rets
      | _ -> perr st "call results must be registers");
      match peek st with
      | Some (Punct ',') ->
        ignore (next st);
        go ()
      | Some _ | None -> ()
    in
    go ()
  | Some _ | None -> ());
  let clobbers = ref [] in
  (match peek st with
  | Some (Punct '!') ->
    ignore (next st);
    let rec go () =
      match peek st with
      | Some (Reg_lit _) ->
        (match next st with
        | Reg_lit r -> clobbers := r :: !clobbers
        | _ -> assert false);
        go ()
      | Some _ | None -> ()
    in
    go ()
  | Some _ | None -> ());
  Instr.Call
    {
      func;
      args = List.rev !args;
      rets = List.rev !rets;
      clobbers = List.rev !clobbers;
    }

(* one instruction or terminator line; returns either *)
type line = L_instr of Instr.desc | L_term of Block.terminator

let parse_line st =
  match next st with
  | Ident "jump" ->
    let l = expect_ident st "label" in
    L_term (Block.Jump l)
  | Ident "ret" -> L_term Block.Ret
  | Ident word
    when String.length word > 3 && String.sub word 0 3 = "br." -> (
    match cmp_of_string (String.sub word 3 (String.length word - 3)) with
    | Some op ->
      let a = parse_operand st in
      expect st (Punct ',') "','";
      let b = parse_operand st in
      expect st (Punct '?') "'?'";
      let ifso = expect_ident st "label" in
      expect st (Punct ':') "':'";
      let ifnot = expect_ident st "label" in
      L_term (Block.Branch { op; a; b; ifso; ifnot })
    | None -> perr st "unknown branch comparison")
  | Ident "call" -> L_instr (parse_call st)
  | Ident "nop" -> L_instr Instr.Nop
  | Ident "store" ->
    let src = parse_operand st in
    expect st (Punct ',') "','";
    let base = parse_operand st in
    expect st (Punct '[') "'['";
    let off =
      match next st with Int_lit k -> k | _ -> perr st "expected an offset"
    in
    expect st (Punct ']') "']'";
    L_instr (Instr.Store { src; base; off })
  | Ident "sstore" ->
    let src = parse_loc st in
    expect st (Punct ',') "','";
    (match next st with
    | Ident s when String.length s > 4 && String.sub s 0 4 = "slot" ->
      L_instr
        (Instr.Spill_store
           { src; slot = int_of_string (String.sub s 4 (String.length s - 4)) })
    | _ -> perr st "expected slotN")
  | Ident name ->
    (* assignment to a temp *)
    let dst = Loc.Temp (lookup_temp st name) in
    expect st Assign "':='";
    L_instr (parse_rhs st dst)
  | Reg_lit r ->
    let dst = Loc.Reg r in
    expect st Assign "':='";
    L_instr (parse_rhs st dst)
  | _ -> perr st "bad line"

let parse_func st =
  let name = expect_ident st "function name" in
  expect st (Punct '{') "'{'";
  skip_newlines st;
  st.temps <- Hashtbl.create 32;
  st.max_temp <- -1;
  (* temp declarations *)
  let rec decls () =
    match peek st with
    | Some (Ident "temp") ->
      ignore (next st);
      let tname = expect_ident st "temp name" in
      let cls =
        match expect_ident st "class" with
        | "int" -> Rclass.Int
        | "float" -> Rclass.Float
        | other -> perr st (Printf.sprintf "unknown class %s" other)
      in
      (* id = digits after the last '.', or the digits after 't' *)
      let id =
        let after_dot =
          match String.rindex_opt tname '.' with
          | Some k ->
            int_of_string_opt
              (String.sub tname (k + 1) (String.length tname - k - 1))
          | None ->
            if String.length tname > 1 && tname.[0] = 't' then
              int_of_string_opt (String.sub tname 1 (String.length tname - 1))
            else None
        in
        match after_dot with
        | Some id -> id
        | None -> perr st (Printf.sprintf "cannot infer id of temp %s" tname)
      in
      let base_name =
        match String.rindex_opt tname '.' with
        | Some k -> Some (String.sub tname 0 k)
        | None -> None
      in
      Hashtbl.replace st.temps tname (Temp.make ?name:base_name ~cls id);
      st.max_temp <- max st.max_temp id;
      skip_newlines st;
      decls ()
    | Some _ | None -> ()
  in
  decls ();
  (* blocks *)
  let blocks = ref [] in
  let rec block_loop () =
    skip_newlines st;
    match peek st with
    | Some (Ident "block") ->
      ignore (next st);
      let label = expect_ident st "label" in
      expect st (Punct ':') "':'";
      skip_newlines st;
      let body = ref [] in
      let rec lines () =
        match parse_line st with
        | L_instr desc ->
          let tag = finish_line st in
          body := Instr.make ~tag desc :: !body;
          skip_newlines st;
          lines ()
        | L_term term ->
          ignore (finish_line st);
          term
      in
      let term = lines () in
      blocks :=
        Block.make ~label ~body:(Array.of_list (List.rev !body)) ~term
        :: !blocks;
      block_loop ()
    | Some (Punct '}') ->
      ignore (next st);
      ()
    | Some _ -> perr st "expected 'block' or '}'"
    | None -> perr st "unterminated function"
  in
  block_loop ();
  match List.rev !blocks with
  | [] -> perr st "function with no blocks"
  | first :: _ as bs ->
    let cfg = Cfg.create ~entry:(Block.label first) bs in
    let f = Func.create ~name ~cfg ~next_temp:(st.max_temp + 1) in
    (* restore the slot counter from the largest slot mentioned *)
    let max_slot = ref (-1) in
    Func.iter_instrs f (fun i ->
        match Instr.desc i with
        | Instr.Spill_load { slot; _ } | Instr.Spill_store { slot; _ } ->
          max_slot := max !max_slot slot
        | _ -> ());
    for _ = 0 to !max_slot do
      ignore (Func.fresh_slot f)
    done;
    f

let of_string text =
  let st =
    { toks = tokenize text; temps = Hashtbl.create 32; max_temp = -1 }
  in
  skip_newlines st;
  (match next st with
  | Ident "program" -> ()
  | _ -> perr st "expected 'program'");
  let main = ref None and heap = ref 65536 in
  let rec header () =
    match peek st with
    | Some (Ident "main") ->
      ignore (next st);
      expect st (Punct '=') "'='";
      main := Some (expect_ident st "main function name");
      header ()
    | Some (Ident "heap") ->
      ignore (next st);
      expect st (Punct '=') "'='";
      (match next st with
      | Int_lit k -> heap := k
      | _ -> perr st "expected a heap size");
      header ()
    | Some _ | None -> ()
  in
  header ();
  skip_newlines st;
  let funcs = ref [] in
  let rec func_loop () =
    skip_newlines st;
    match peek st with
    | Some (Ident "func") ->
      ignore (next st);
      let f = parse_func st in
      funcs := (Func.name f, f) :: !funcs;
      func_loop ()
    | Some _ -> perr st "expected 'func'"
    | None -> ()
  in
  func_loop ();
  let main =
    match !main with
    | Some m -> m
    | None -> perr st "missing main= in program header"
  in
  let prog = Program.create ~heap_words:!heap ~main (List.rev !funcs) in
  Program.validate prog;
  prog
