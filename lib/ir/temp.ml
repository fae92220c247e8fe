type t = { id : int; cls : Rclass.t; name : string option }

let make ?name ~cls id =
  if id < 0 then invalid_arg "Temp.make: negative id";
  { id; cls; name }

let id t = t.id
let cls t = t.cls
let name t = t.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id

let to_buffer buf t =
  (match t.name with
  | None -> Buffer.add_char buf 't'
  | Some n ->
    Buffer.add_string buf n;
    Buffer.add_char buf '.');
  Buffer.add_string buf (string_of_int t.id)

let to_string t =
  let buf = Buffer.create 16 in
  to_buffer buf t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
