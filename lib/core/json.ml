type t =
  [ `Null
  | `Bool of bool
  | `Int of int
  | `Float of float
  | `String of string
  | `List of t list
  | `Assoc of (string * t) list ]

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf (v : t) =
  let seq f items =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f x)
      items
  in
  match v with
  | `Null -> Buffer.add_string buf "null"
  | `Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | `Int n -> Buffer.add_string buf (string_of_int n)
  | `Float f ->
      Buffer.add_string buf
        (if Float.is_nan f then "null" else Printf.sprintf "%.17g" f)
  | `String s -> add_string buf s
  | `List items ->
      Buffer.add_char buf '[';
      seq (add buf) items;
      Buffer.add_char buf ']'
  | `Assoc fields ->
      Buffer.add_char buf '{';
      seq
        (fun (k, x) ->
          add_string buf k;
          Buffer.add_char buf ':';
          add buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  add buf v;
  Buffer.contents buf
