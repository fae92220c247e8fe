type t = { funcs : (string * Func.t) list; main : string; heap_words : int }

let create ?(heap_words = 65536) ~main funcs =
  let names = List.map fst funcs in
  if not (List.mem main names) then
    raise (Cfg.Malformed (Printf.sprintf "main function %s missing" main));
  let rec dup = function
    | [] -> ()
    | n :: rest ->
      if List.mem n rest then
        raise (Cfg.Malformed (Printf.sprintf "duplicate function %s" n));
      dup rest
  in
  dup names;
  { funcs; main; heap_words }

let funcs p = p.funcs
let main p = p.main
let heap_words p = p.heap_words

let find p name = List.assoc_opt name p.funcs

let find_exn p name =
  match find p name with
  | Some f -> f
  | None -> raise (Cfg.Malformed (Printf.sprintf "unknown function %s" name))

let validate p = List.iter (fun (_, f) -> Func.validate f) p.funcs

let pp fmt p =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (_, f) ->
      if i > 0 then Format.fprintf fmt "@,@,";
      Func.pp fmt f)
    p.funcs;
  Format.fprintf fmt "@]"

let copy p = { p with funcs = List.map (fun (n, f) -> (n, Func.copy f)) p.funcs }
