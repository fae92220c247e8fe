type t = Loc of Loc.t | Int of int | Float of float

let temp t = Loc (Loc.Temp t)
let reg r = Loc (Loc.Reg r)
let loc l = Loc l
let int i = Int i
let float f = Float f

let cls = function
  | Loc l -> Loc.cls l
  | Int _ -> Rclass.Int
  | Float _ -> Rclass.Float

let as_loc = function Loc l -> Some l | Int _ | Float _ -> None

let iter ~temp ~reg = function
  | Loc (Loc.Temp t) -> temp t
  | Loc (Loc.Reg r) -> reg r
  | Int _ | Float _ -> ()

let equal a b =
  match a, b with
  | Loc x, Loc y -> Loc.equal x y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | (Loc _ | Int _ | Float _), _ -> false

let to_buffer buf = function
  | Loc l -> Loc.to_buffer buf l
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Printf.bprintf buf "%h" f

let to_string o =
  let buf = Buffer.create 16 in
  to_buffer buf o;
  Buffer.contents buf

let pp fmt o = Format.pp_print_string fmt (to_string o)
