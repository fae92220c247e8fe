type t = { idx : int; cls : Rclass.t }

let make ~cls idx =
  if idx < 0 then invalid_arg "Mreg.make: negative index";
  { idx; cls }

let idx r = r.idx
let cls r = r.cls

let equal a b = a.idx = b.idx && Rclass.equal a.cls b.cls

let compare a b =
  let c = Rclass.compare a.cls b.cls in
  if c <> 0 then c else Int.compare a.idx b.idx

let hash r =
  match r.cls with
  | Rclass.Int -> r.idx * 2
  | Rclass.Float -> (r.idx * 2) + 1

let to_buffer buf r =
  Buffer.add_string buf
    (match r.cls with Rclass.Int -> "$r" | Rclass.Float -> "$f");
  Buffer.add_string buf (string_of_int r.idx)

let to_string r =
  let buf = Buffer.create 8 in
  to_buffer buf r;
  Buffer.contents buf

let pp fmt r = Format.pp_print_string fmt (to_string r)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
