type t = Temp of Temp.t | Reg of Mreg.t

let temp t = Temp t
let reg r = Reg r

let cls = function
  | Temp t -> Temp.cls t
  | Reg r -> Mreg.cls r

let equal a b =
  match a, b with
  | Temp x, Temp y -> Temp.equal x y
  | Reg x, Reg y -> Mreg.equal x y
  | Temp _, Reg _ | Reg _, Temp _ -> false

let compare a b =
  match a, b with
  | Temp x, Temp y -> Temp.compare x y
  | Reg x, Reg y -> Mreg.compare x y
  | Temp _, Reg _ -> -1
  | Reg _, Temp _ -> 1

let is_temp = function Temp _ -> true | Reg _ -> false
let as_temp = function Temp t -> Some t | Reg _ -> None

let to_buffer buf = function
  | Temp t -> Temp.to_buffer buf t
  | Reg r -> Mreg.to_buffer buf r

let to_string l =
  let buf = Buffer.create 16 in
  to_buffer buf l;
  Buffer.contents buf

let pp fmt l = Format.pp_print_string fmt (to_string l)

let collect walk x =
  let acc = ref [] in
  walk
    ~temp:(fun t -> acc := Temp t :: !acc)
    ~reg:(fun r -> acc := Reg r :: !acc)
    x;
  match !acc with ([] | [ _ ]) as l -> l | l -> List.rev l
