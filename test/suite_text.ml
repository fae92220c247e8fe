open Lsra_ir
open Lsra_target

(* Round-trip and error-handling tests for the textual IR. *)

let roundtrip_case name prog input =
  let text = Lsra_text.Ir_text.to_string prog in
  let prog' =
    try Lsra_text.Ir_text.of_string text
    with Lsra_text.Ir_text.Parse_error { line; msg } ->
      Alcotest.failf "%s: parse error at line %d: %s\n%s" name line msg text
  in
  let text' = Lsra_text.Ir_text.to_string prog' in
  Alcotest.(check string) (name ^ ": print∘parse∘print is stable") text text';
  (* behavioural equivalence *)
  let machine = Machine.alpha_like in
  match
    ( Lsra_sim.Interp.run machine prog ~input,
      Lsra_sim.Interp.run machine prog' ~input )
  with
  | Ok a, Ok b ->
    Alcotest.(check string)
      (name ^ ": same output") a.Lsra_sim.Interp.output
      b.Lsra_sim.Interp.output
  | Error e, _ | _, Error e -> Alcotest.failf "%s: trapped: %s" name e

let test_roundtrip_workloads () =
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      roundtrip_case case.Lsra_workloads.Specbench.name
        case.Lsra_workloads.Specbench.program
        case.Lsra_workloads.Specbench.input)
    (Lsra_workloads.Specbench.all Machine.alpha_like ~scale:1)

let test_roundtrip_allocated () =
  (* allocated programs (registers, spill slots, provenance tags) must
     round-trip too *)
  List.iter
    (fun (case : Lsra_workloads.Specbench.case) ->
      let prog = Program.copy case.Lsra_workloads.Specbench.program in
      ignore
        (Lsra.Allocator.pipeline Lsra.Allocator.default_second_chance
           Machine.alpha_like prog);
      roundtrip_case
        (case.Lsra_workloads.Specbench.name ^ "-allocated")
        prog case.Lsra_workloads.Specbench.input)
    (Lsra_workloads.Specbench.all Machine.alpha_like ~scale:1)

let test_parse_error_reporting () =
  let bad = "program main=f heap=10\nfunc f {\n  block entry:\n    t0 := 3\n" in
  match Lsra_text.Ir_text.of_string bad with
  | exception Lsra_text.Ir_text.Parse_error { msg; _ } ->
    Alcotest.(check bool) "mentions the temp" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected a parse error (undeclared temp)"

let test_small_handwritten () =
  let text =
    {|program main=main heap=128
func main {
  temp acc.0 int
  temp i.1 int
  block entry:
    acc.0 := 0
    i.1 := 0
    jump loop
  block loop:
    acc.0 := add acc.0, i.1
    i.1 := add i.1, 1
    br.lt i.1, 5 ? loop : out
  block out:
    $r0 := acc.0
    ret
}
|}
  in
  let prog = Lsra_text.Ir_text.of_string text in
  match Lsra_sim.Interp.run Machine.alpha_like prog ~input:"" with
  | Ok o ->
    Alcotest.(check string)
      "sum 0..4" "10"
      (Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret)
  | Error e -> Alcotest.failf "trapped: %s" e

(* ------------------------------------------------------------------ *)
(* Error table: the exact (line, message) of every parse error site.   *)

(* What parsing [text] does, as one comparable string. *)
let outcome text =
  match Lsra_text.Ir_text.of_string text with
  | _ -> "ok"
  | exception Lsra_text.Ir_text.Parse_error { line; msg } ->
    Printf.sprintf "%d: %s" line msg
  | exception Cfg.Malformed msg -> "malformed: " ^ msg
  | exception e -> "exception: " ^ Printexc.to_string e

(* A one-function program whose entry block holds [body] (lines 6 on),
   followed by [ret] and the closing brace. *)
let in_entry body =
  "program main=f heap=10\n\
   func f {\n\
  \  temp x.1 int\n\
  \  temp g.2 float\n\
  \  block entry:\n" ^ body ^ "\n    ret\n}\n"

let header = "program main=f heap=10\n"

let error_table =
  [
    (* lexing *)
    ("truncated register", header ^ "$", "2: truncated register");
    ("bad register class", in_entry "    $q1 := 1", "6: bad register class");
    ( "register needs an index",
      in_entry "    $r := 1",
      "6: register needs an index" );
    ( "bad float literal",
      in_entry "    g.2 := 1.2.3",
      "6: bad float literal \"1.2.3\"" );
    ( "bad numeric literal",
      in_entry "    x.1 := 12abc",
      "6: bad numeric literal \"12abc\"" );
    ( "unexpected character",
      in_entry "    x.1 := 1 @",
      "6: unexpected character '@'" );
    (* program header *)
    ("empty input", "", "0: unexpected end of input");
    ("expected 'program'", "prog main=f\n", "1: expected 'program'");
    ("expected '='", "program main f\n", "1: expected '='");
    ( "expected main function name",
      "program main=5\n",
      "1: expected main function name" );
    ( "expected a heap size",
      "program main=f heap=x\n",
      "1: expected a heap size" );
    ("expected 'func'", header ^ "foo\n", "2: expected 'func'");
    ("header junk", "program main=f heap=10 junk\n", "1: expected 'func'");
    ( "missing main=",
      "program heap=10\n",
      "0: missing main= in program header" );
    (* function and declarations *)
    ( "expected function name",
      header ^ "func { }\n",
      "2: expected function name" );
    ("expected '{'", header ^ "func f (\n", "2: expected '{'");
    ( "expected temp name",
      header ^ "func f {\n  temp 5 int\n}\n",
      "3: expected temp name" );
    ( "expected class",
      header ^ "func f {\n  temp x.1 5\n}\n",
      "3: expected class" );
    ( "unknown class",
      header ^ "func f {\n  temp x.1 bool\n}\n",
      "3: unknown class bool" );
    ( "cannot infer id",
      header ^ "func f {\n  temp foo int\n}\n",
      "3: cannot infer id of temp foo" );
    ( "cannot infer id (t)",
      header ^ "func f {\n  temp t int\n}\n",
      "3: cannot infer id of temp t" );
    ( "expected 'block' or '}'",
      header ^ "func f {\n  temp x.1 int\n  x.1 := 5\n}\n",
      "4: expected 'block' or '}'" );
    ( "unterminated function",
      header ^ "func f {\n  block entry:\n    ret\n",
      "0: unterminated function" );
    ( "function with no blocks",
      header ^ "func f {\n}\n",
      "3: function with no blocks" );
    ( "function with no blocks at eof",
      header ^ "func f {\n}",
      "0: function with no blocks" );
    ( "expected label (block)",
      header ^ "func f {\n  block 5:\n",
      "3: expected label" );
    ( "expected ':' (block)",
      header ^ "func f {\n  block entry\n",
      "0: expected ':'" );
    (* lines *)
    ("bad line", in_entry "    5 := x.1", "6: bad line");
    ("expected ':='", in_entry "    x.1 = 5", "6: expected ':='");
    ("register expected ':='", in_entry "    $r0 5", "6: expected ':='");
    ( "undeclared temporary (dst)",
      in_entry "    y.9 := 1",
      "6: undeclared temporary y.9" );
    ( "undeclared temporary (src)",
      in_entry "    x.1 := y.9",
      "6: undeclared temporary y.9" );
    ( "undeclared temporary (operand)",
      in_entry "    x.1 := add x.1, y.9",
      "6: undeclared temporary y.9" );
    ( "expected end of line",
      in_entry "    x.1 := 1 2",
      "6: expected end of line" );
    ( "expected end of line after comment",
      in_entry "    x.1 := 1 ; c\n    x.1 := 1 2",
      "7: expected end of line" );
    ( "bad instruction right-hand side",
      in_entry "    x.1 := ,",
      "6: bad instruction right-hand side" );
    ("expected ','", in_entry "    x.1 := add x.1 x.1", "6: expected ','");
    ( "expected ',' (cmp)",
      in_entry "    x.1 := cmp.lt x.1 x.1",
      "6: expected ','" );
    ( "unknown comparison",
      in_entry "    x.1 := cmp.zz x.1, 1",
      "6: unknown comparison cmp.zz" );
    ("expected '['", in_entry "    x.1 := load x.1 5", "6: expected '['");
    ( "expected an offset (load)",
      in_entry "    x.1 := load x.1[x.1]",
      "6: expected an offset" );
    ("expected ']'", in_entry "    x.1 := load x.1[5 6", "6: expected ']'");
    ( "expected an offset (store)",
      in_entry "    store x.1, x.1[x.1]",
      "6: expected an offset" );
    ( "expected ',' (store)",
      in_entry "    store x.1 x.1[0]",
      "6: expected ','" );
    ( "expected slotN (sload)",
      in_entry "    x.1 := sload x.1",
      "6: expected slotN" );
    ( "expected slotN (sload slot)",
      in_entry "    x.1 := sload slot",
      "6: expected slotN" );
    ( "expected slotN (sstore)",
      in_entry "    sstore x.1, 3",
      "6: expected slotN" );
    ( "expected a register or temporary",
      in_entry "    sstore 5, slot0",
      "6: expected a register or temporary" );
    ("expected '('", in_entry "    call g $r0", "6: expected '('");
    ( "call arguments must be registers",
      in_entry "    call g(x.1)",
      "6: call arguments must be registers" );
    ( "expected ',' or ')'",
      in_entry "    call g($r0 $r1)",
      "6: expected ',' or ')'" );
    ( "unterminated call",
      header ^ "func f {\n  block entry:\n    call g(",
      "0: unterminated call" );
    ( "call results must be registers",
      in_entry "    call g() -> x.1",
      "6: call results must be registers" );
    ( "expected function name (call)",
      in_entry "    call (",
      "6: expected function name" );
    ( "unknown branch comparison",
      header ^ "func f {\n  block entry:\n    br.zz $r0, 1 ? a : b\n}\n",
      "4: unknown branch comparison" );
    ( "expected '?'",
      header ^ "func f {\n  block entry:\n    br.lt $r0, 1 : a ? b\n}\n",
      "4: expected '?'" );
    ( "expected ':' (branch)",
      header ^ "func f {\n  block entry:\n    br.lt $r0, 1 ? a b\n}\n",
      "4: expected ':'" );
    ( "expected label (jump)",
      header ^ "func f {\n  block entry:\n    jump 5\n}\n",
      "4: expected label" );
    ( "unexpected end of input",
      header ^ "func f {\n  block entry:\n    $r0 := ",
      "0: unexpected end of input" );
    (* the first error in reading order wins: a syntax error on line 6
       ahead of a lexing error on line 7 (the whole text used to be
       lexed first, so the lexing error won) *)
    ( "syntax error before lexing error",
      in_entry "    x.1 := ,\n    x.1 := 1 @",
      "6: bad instruction right-hand side" );
    ( "syntax error before bad register",
      in_entry "    x.1 := ,\n    $q0 := 1",
      "6: bad instruction right-hand side" );
    ( "lexing error before syntax error",
      in_entry "    x.1 := @\n    x.1 := ,",
      "6: unexpected character '@'" );
    (* numbers: typed errors and the index bound *)
    ( "register index overflows",
      in_entry "    $r99999999999999999999 := x.1",
      "6: register index above 1048576 in $r99999999999999999999" );
    ( "register index above the bound",
      in_entry "    $r1048577 := x.1",
      "6: register index above 1048576 in $r1048577" );
    ("register index at the bound", in_entry "    $r1048576 := x.1", "ok");
    ("non-numeric slot", in_entry "    x.1 := sload slotq", "6: expected slotN");
    ("negative slot", in_entry "    x.1 := sload slot-1", "6: expected slotN");
    ("hexadecimal slot", in_entry "    sstore x.1, slot0x1", "6: expected slotN");
    ( "slot above the bound",
      in_entry "    sstore $r1, slot4000000000",
      "6: slot number above 1048576 in slot4000000000" );
    ("slot at the bound", in_entry "    x.1 := sload slot1048576", "ok");
    ( "temp id above the bound",
      header ^ "func f {\n  temp y.4000000000 int\n}\n",
      "3: temp id above 1048576 in y.4000000000" );
    ( "overflowing temp id",
      header ^ "func f {\n  temp t99999999999999999999 int\n}\n",
      "3: temp id above 1048576 in t99999999999999999999" );
    ( "hexadecimal temp id",
      header ^ "func f {\n  temp x.0x10 int\n}\n",
      "3: cannot infer id of temp x.0x10" );
    ( "negative temp id",
      header ^ "func f {\n  temp t-1 int\n}\n",
      "3: cannot infer id of temp t-1" );
    ( "integer literal out of range",
      in_entry "    x.1 := 4611686018427387904",
      "6: integer literal out of range \"4611686018427387904\"" );
    ( "negative integer literal out of range",
      in_entry "    x.1 := -4611686018427387905",
      "6: integer literal out of range \"-4611686018427387905\"" );
    ("largest integer literal", in_entry "    x.1 := 4611686018427387903", "ok");
    ("smallest integer literal", in_entry "    x.1 := -4611686018427387904", "ok");
    ( "overflowing offset",
      in_entry "    x.1 := load x.1[99999999999999999999]",
      "6: integer literal out of range \"99999999999999999999\"" );
    (* temps: one declaration per id, uses spelled as declared *)
    ( "duplicate temp id",
      header ^ "func f {\n  temp x.1 int\n  temp y.1 int\n}\n",
      "4: temporaries x.1 and y.1 share id 1" );
    ( "duplicate temp name",
      header ^ "func f {\n  temp x.1 int\n  temp x.1 float\n}\n",
      "4: duplicate temporary x.1" );
    ( "duplicate id spelled two ways",
      header ^ "func f {\n  temp x.1 int\n  temp x.01 int\n}\n",
      "4: temporaries x.1 and x.01 share id 1" );
    ( "use spelled unlike its declaration",
      header ^ "func f {\n  temp x.01 int\n  block entry:\n    x.1 := 0\n    ret\n}\n",
      "5: undeclared temporary x.1" );
    ( "declared in another function",
      header ^ "func g {\n  temp x.1 int\n  block entry:\n    ret\n}\n\
               func f {\n  block entry:\n    x.1 := 0\n    ret\n}\n",
      "9: undeclared temporary x.1" );
    ( "same temps in two functions",
      "program main=f\n\
       func f {\n  temp x.1 int\n  block entry:\n    x.1 := 0\n    ret\n}\n\
       func g {\n  temp x.1 int\n  block entry:\n    x.1 := 0\n    ret\n}\n",
      "ok" );
    (* non-finite float literals, as the printer spells them *)
    ("infinity", in_entry "    g.2 := infinity", "ok");
    ("-infinity", in_entry "    g.2 := fadd g.2, -infinity", "ok");
    ("nan", in_entry "    g.2 := nan", "ok");
    ("-nan", in_entry "    store -nan, x.1[0]", "ok");
    ("inf is not a literal", in_entry "    g.2 := inf", "6: undeclared temporary inf");
    ( "a float literal is not a location",
      in_entry "    sstore nan, slot0",
      "6: undeclared temporary nan" );
    ( "a block may be called nan",
      header ^ "func f {\n  block entry:\n    jump nan\n  block nan:\n    ret\n}\n",
      "ok" );
    (* structural errors come from validation *)
    ( "jump to an unknown block",
      header ^ "func f {\n  block entry:\n    jump nowhere\n}\n",
      "malformed: block entry targets unknown label nowhere" );
    ( "unknown main",
      "program main=g\nfunc f {\n  block entry:\n    ret\n}\n",
      "malformed: main function g missing" );
  ]

let test_error_table () =
  let failures =
    List.filter_map
      (fun (name, text, want) ->
        let got = outcome text in
        if got = want then None
        else Some (Printf.sprintf "%s: want %S, got %S" name want got))
      error_table
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

(* ------------------------------------------------------------------ *)
(* Golden programs read back                                           *)

let small8 = Lsra_sim.Sweep.small_8

(* Every program in the golden IR text (before and after allocation)
   parses and prints back byte-identically, and every pre-allocation
   program keeps the cache key recorded next to it. *)
let test_golden_reparse () =
  let path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "golden/irtext.expected"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let sections =
    (* the text ends in a newline: drop the empty string after it *)
    match List.rev (String.split_on_char '\n' text) with
    | [] -> []
    | _ :: rev_lines ->
      let lines = List.rev rev_lines in
      let flush acc cur =
        match cur with
        | Some (h, body) -> (h, List.rev body) :: acc
        | None -> acc
      in
      let acc, cur =
        List.fold_left
          (fun (acc, cur) l ->
            if String.starts_with ~prefix:"==== " l then (flush acc cur, Some (l, []))
            else
              match cur with
              | Some (h, body) -> (acc, Some (h, l :: body))
              | None -> (acc, None))
          ([], None) lines
      in
      List.rev (flush acc cur)
  in
  let programs = ref 0 in
  List.iter
    (fun (header, body) ->
      let key, body =
        match body with
        | k :: rest when String.starts_with ~prefix:"key " k ->
          (Some (String.sub k 4 (String.length k - 4)), rest)
        | _ -> (None, body)
      in
      match body with
      | l :: _ when String.starts_with ~prefix:"frontend rejected" l -> ()
      | _ ->
        let src = String.concat "\n" body ^ "\n" in
        let prog =
          try Lsra_text.Ir_text.of_string src
          with Lsra_text.Ir_text.Parse_error { line; msg } ->
            Alcotest.failf "%s: parse error at line %d: %s" header line msg
        in
        incr programs;
        Alcotest.(check string) (header ^ ": re-print") src
          (Lsra_text.Ir_text.to_string prog);
        Option.iter
          (fun key ->
            let machine =
              if String.ends_with ~suffix:", small-8 ====" header then small8
              else Machine.alpha_like
            in
            Alcotest.(check string) (header ^ ": cache key") key
              (Lsra_service.Cachekey.digest ~machine
                 ~algo:Lsra.Allocator.default_second_chance
                 ~passes:Lsra.Passes.default prog))
          key)
    sections;
  Alcotest.(check bool) "found the golden programs" true (!programs > 100)

(* ------------------------------------------------------------------ *)
(* Properties over generated programs                                  *)

(* The canonical text of a small generated program: even seeds on the
   alpha, odd ones on small-8; every other pair from the call-dense
   hostile profile; half of them after the allocation pipeline. *)
let canonical_of_seed seed =
  let machine = if seed land 1 = 0 then Machine.alpha_like else small8 in
  let base =
    if seed land 2 = 0 then
      { Lsra_workloads.Gen.default_params with Lsra_workloads.Gen.seed }
    else Lsra_workloads.Gen.hostile_params ~seed
  in
  let params =
    {
      base with
      Lsra_workloads.Gen.n_funcs = 2;
      n_stmts = 4;
      max_depth = 1;
      n_temps = 8;
    }
  in
  let prog = Lsra_workloads.Gen.program ~params machine in
  if seed land 4 <> 0 then
    ignore
      (Lsra.Allocator.pipeline ~passes:Lsra.Passes.default
         Lsra.Allocator.default_second_chance machine prog);
  Lsra_text.Ir_text.to_string prog

(* Re-spell canonical text: random runs of spaces and tabs between
   tokens and before them, blank and comment-only lines, trailing
   comments, spacing inside spill tags, and CRLF line ends. *)
let respell rs text =
  let buf = Buffer.create (String.length text * 2) in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let blanks ~min =
    String.init
      (min + Random.State.int rs 3)
      (fun _ -> if Random.State.bool rs then ' ' else '\t')
  in
  let eol () = Buffer.add_string buf (if Random.State.int rs 4 = 0 then "\r\n" else "\n") in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  List.iteri
    (fun k line ->
      if k = n - 1 then Buffer.add_string buf line
      else begin
        if Random.State.int rs 4 = 0 then begin
          Buffer.add_string buf
            (pick [ ""; blanks ~min:0; blanks ~min:0 ^ "; a comment"; ";" ]);
          eol ()
        end;
        let code, comment =
          match String.index_opt line ';' with
          | Some i ->
            ( String.sub line 0 i,
              Some (String.trim (String.sub line (i + 1) (String.length line - i - 1))) )
          | None -> (line, None)
        in
        let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' code) in
        Buffer.add_string buf (blanks ~min:0);
        List.iteri
          (fun j w ->
            if j > 0 then Buffer.add_string buf (blanks ~min:1);
            Buffer.add_string buf w)
          words;
        (match comment with
        | Some c ->
          Buffer.add_string buf (blanks ~min:0);
          Buffer.add_char buf ';';
          Buffer.add_string buf (blanks ~min:0);
          Buffer.add_string buf c;
          Buffer.add_string buf (blanks ~min:0)
        | None ->
          if Random.State.int rs 5 = 0 then begin
            Buffer.add_string buf (blanks ~min:1);
            Buffer.add_string buf "; note"
          end);
        eol ()
      end)
    lines;
  Buffer.contents buf

let prop_respelled =
  QCheck.Test.make ~count:60 ~name:"re-spelled programs parse to the same text"
    QCheck.(pair (int_range 0 10_000) int)
    (fun (seed, spell) ->
      let text = canonical_of_seed seed in
      let rs = Random.State.make [| spell |] in
      let spelled = respell rs text in
      match Lsra_text.Ir_text.of_string spelled with
      | prog ->
        let back = Lsra_text.Ir_text.to_string prog in
        if back <> text then
          QCheck.Test.fail_reportf "seed %d: re-spelled text prints back differently:\n%s"
            seed spelled;
        true
      | exception Lsra_text.Ir_text.Parse_error { line; msg } ->
        QCheck.Test.fail_reportf "seed %d: parse error at line %d: %s\n%s" seed
          line msg spelled)

(* Truncations, byte flips and line deletions of canonical text. *)
let mutate rs text =
  let alphabet = "0123456789$rfxt.;:-=>,()[]!?{}@ \n\tpslo" in
  let once text =
    let n = String.length text in
    if n = 0 then text
    else
      match Random.State.int rs 3 with
      | 0 -> String.sub text 0 (Random.State.int rs n)
      | 1 ->
        let b = Bytes.of_string text in
        let c =
          if Random.State.bool rs then Char.chr (Random.State.int rs 256)
          else alphabet.[Random.State.int rs (String.length alphabet)]
        in
        Bytes.set b (Random.State.int rs n) c;
        Bytes.to_string b
      | _ ->
        let lines = String.split_on_char '\n' text in
        let k = Random.State.int rs (List.length lines) in
        String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
  in
  let rec go k text = if k = 0 then text else go (k - 1) (once text) in
  go (1 + Random.State.int rs 3) text

let prop_fuzz =
  QCheck.Test.make ~count:300
    ~name:"mutated programs raise only Parse_error or Malformed"
    QCheck.(pair (int_range 0 10_000) int)
    (fun (seed, m) ->
      let rs = Random.State.make [| m |] in
      let text = mutate rs (canonical_of_seed seed) in
      match Lsra_text.Ir_text.of_string text with
      | _ -> true
      | exception (Lsra_text.Ir_text.Parse_error _ | Cfg.Malformed _) -> true
      | exception e ->
        QCheck.Test.fail_reportf "seed %d: %s on\n%s" seed
          (Printexc.to_string e) text)

(* ------------------------------------------------------------------ *)
(* Regressions                                                         *)

let parse_error_of text =
  match Lsra_text.Ir_text.of_string text with
  | _ -> Alcotest.failf "expected a parse error on\n%s" text
  | exception Lsra_text.Ir_text.Parse_error { line; msg } -> (line, msg)

(* Two temps sharing an id used to become one temp: this program was
   allocated to `$r0 := 7; $r0 := add $r0, $r0`, which computes 14, not
   12 (and to `$r0 := $f0` when y.1 was a float). *)
let test_shared_id_rejected () =
  List.iter
    (fun cls ->
      let text =
        Printf.sprintf
          "program main=main heap=64\n\n\
           func main {\n\
          \  temp x.1 int\n\
          \  temp y.1 %s\n\
          \  block entry:\n\
          \    x.1 := 5\n\
          \    y.1 := 7\n\
          \    $r0 := add x.1, y.1\n\
          \    ret\n\
           }\n"
          cls
      in
      Alcotest.(check (pair int string))
        ("y.1 " ^ cls) (5, "temporaries x.1 and y.1 share id 1")
        (parse_error_of text))
    [ "int"; "float" ]

(* The printer spells an infinite constant `infinity`; the allocated
   program must read back and compute the same. *)
let test_nonfinite_round_trip () =
  let text =
    "program main=main heap=64\n\n\
     func main {\n\
    \  temp x.1 float\n\
    \  temp y.2 float\n\
    \  temp z.3 float\n\
    \  block entry:\n\
    \    x.1 := 0x1p+1024\n\
    \    y.2 := fneg x.1\n\
    \    z.3 := fadd x.1, y.2\n\
    \    $f0 := fadd x.1, z.3\n\
    \    $f1 := fsub 0x0p+0, z.3\n\
    \    ret\n\
     }\n"
  in
  let prog = Lsra_text.Ir_text.of_string text in
  let run p =
    match Lsra_sim.Interp.run Machine.alpha_like p ~input:"" with
    | Ok o -> Lsra_sim.Value.to_string o.Lsra_sim.Interp.ret
    | Error e -> Alcotest.failf "trapped: %s" e
  in
  let before = run prog in
  ignore
    (Lsra.Allocator.pipeline ~passes:[] Lsra.Allocator.default_second_chance
       Machine.alpha_like prog);
  let allocated = Lsra_text.Ir_text.to_string prog in
  Alcotest.(check bool) "prints infinity" true
    (List.exists
       (fun l -> String.ends_with ~suffix:":= infinity" l)
       (String.split_on_char '\n' allocated));
  let back =
    try Lsra_text.Ir_text.of_string allocated
    with Lsra_text.Ir_text.Parse_error { line; msg } ->
      Alcotest.failf "line %d: %s\n%s" line msg allocated
  in
  Alcotest.(check string) "re-prints" allocated (Lsra_text.Ir_text.to_string back);
  Alcotest.(check string) "same result" before (run back);
  (* every spelling the printer has for a non-finite float reads back *)
  List.iter
    (fun f ->
      let spelled = Printf.sprintf "%h" f in
      let src =
        Printf.sprintf
          "program main=main\nfunc main {\n  block entry:\n    $f0 := %s\n    ret\n}\n"
          spelled
      in
      let printed = Lsra_text.Ir_text.to_string (Lsra_text.Ir_text.of_string src) in
      Alcotest.(check bool) (spelled ^ " reads back") true
        (List.mem ("    $f0 := " ^ spelled) (String.split_on_char '\n' printed)))
    [ infinity; neg_infinity; nan; Float.neg nan ]

let suite =
  [
    Alcotest.test_case "round-trip all workloads" `Quick
      test_roundtrip_workloads;
    Alcotest.test_case "round-trip allocated programs" `Quick
      test_roundtrip_allocated;
    Alcotest.test_case "parse errors are reported" `Quick
      test_parse_error_reporting;
    Alcotest.test_case "hand-written program parses and runs" `Quick
      test_small_handwritten;
    Alcotest.test_case "every parse error site: line and message" `Quick
      test_error_table;
    Alcotest.test_case "golden programs re-parse with the same key" `Quick
      test_golden_reparse;
    Alcotest.test_case "temps sharing an id are rejected" `Quick
      test_shared_id_rejected;
    Alcotest.test_case "non-finite float literals read back" `Quick
      test_nonfinite_round_trip;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_respelled; prop_fuzz ]
