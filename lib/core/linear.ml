open Lsra_ir

type t = {
  func : Func.t;
  first : int array;
  last : int array;
  n_instrs : int;
  instr_block : int array;
}

let spacing = 4

let number func =
  let cfg = Func.cfg func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let first = Array.make nb 0 in
  let last = Array.make nb 0 in
  let k = ref 0 in
  Array.iteri
    (fun bi b ->
      first.(bi) <- !k;
      k := !k + Array.length (Block.body b) + 1;
      last.(bi) <- !k - 1)
    blocks;
  let n = !k in
  let instr_block = Array.make (max n 1) 0 in
  Array.iteri
    (fun bi _ ->
      for i = first.(bi) to last.(bi) do
        instr_block.(i) <- bi
      done)
    blocks;
  { func; first; last; n_instrs = n; instr_block }

let func t = t.func
let n_instrs t = t.n_instrs
let n_positions t = t.n_instrs * spacing

let first_instr t bi = t.first.(bi)
let last_instr t bi = t.last.(bi)
let block_of_instr t k = t.instr_block.(k)

let boundary_pos k = k * spacing
let use_pos k = (k * spacing) + 1
let def_pos k = (k * spacing) + 2
let after_pos k = (k * spacing) + 3

let block_top t bi = boundary_pos t.first.(bi)
let block_bottom t bi = after_pos t.last.(bi)
