(* Result reporting: one human-readable line per metric
   ("name workload value unit"), then the machine-readable result as the
   last line of standard output. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Shortest decimal that reads back as the same float: every digit as
   measured, nothing invented. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Report.number: not finite";
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec x in
    if prec >= 17 || float_of_string s = x then s else go (prec + 1)
  in
  go 1

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (number m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

let human_line ~workload m =
  Printf.sprintf "%s %s %s %s" m.name workload (number m.value) m.unit_
