open Lsra_ir
open Lsra_target

type t = {
  n_int : int;
  total : int;
  int_idxs : int list; (* cached: [of_cls] is called on every assignment *)
  float_idxs : int list;
  regs : Mreg.t array; (* by flat index, shared by every [to_reg] *)
  locs : Loc.t array; (* [Loc.Reg] of [regs], shared by every [to_loc] *)
}

let create machine =
  let n_int = Machine.n_regs machine Rclass.Int in
  let total = n_int + Machine.n_regs machine Rclass.Float in
  let regs =
    Array.init total (fun i ->
        if i < n_int then Mreg.make ~cls:Rclass.Int i
        else Mreg.make ~cls:Rclass.Float (i - n_int))
  in
  {
    n_int;
    total;
    int_idxs = List.init n_int (fun i -> i);
    float_idxs = List.init (total - n_int) (fun i -> n_int + i);
    regs;
    locs = Array.map (fun r -> Loc.Reg r) regs;
  }

let total t = t.total

let of_reg t r =
  match Mreg.cls r with
  | Rclass.Int -> Mreg.idx r
  | Rclass.Float -> t.n_int + Mreg.idx r

let to_reg t i =
  if i < 0 || i >= t.total then invalid_arg "Regidx.to_reg";
  Array.unsafe_get t.regs i

let to_loc t i = t.locs.(i)

let of_cls t cls =
  match cls with Rclass.Int -> t.int_idxs | Rclass.Float -> t.float_idxs

(* The flat indices of a class form a contiguous range; hot loops iterate
   it directly instead of walking the list. *)
let cls_range t cls =
  match cls with
  | Rclass.Int -> (0, t.n_int)
  | Rclass.Float -> (t.n_int, t.total)
