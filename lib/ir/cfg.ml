type edges = { succs : int array array; preds : int array array }

(* The integer edge tables of [blocks] as they stood when [edges] was
   built: the blocks in linear order and each one's terminator, compared
   by physical equality on every read. *)
type cache = {
  c_blocks : Block.t array;
  c_terms : Block.terminator array;
  c_edges : edges;
}

type t = {
  entry : string;
  mutable blocks : Block.t array;
  index : (string, int) Hashtbl.t;
  mutable entry_index : int;
  mutable cache : cache option;
}

exception Malformed of string

let reindex t =
  Hashtbl.reset t.index;
  Array.iteri
    (fun i b ->
      let l = Block.label b in
      if Hashtbl.mem t.index l then
        raise (Malformed (Printf.sprintf "duplicate block label %s" l));
      Hashtbl.add t.index l i)
    t.blocks;
  t.entry_index <-
    (match Hashtbl.find_opt t.index t.entry with Some i -> i | None -> -1)

let create ~entry blocks =
  let t =
    {
      entry;
      blocks = Array.of_list blocks;
      index = Hashtbl.create 16;
      entry_index = -1;
      cache = None;
    }
  in
  reindex t;
  if t.entry_index < 0 then
    raise (Malformed (Printf.sprintf "entry block %s missing" entry));
  t

let entry t = t.entry
let entry_index t = t.entry_index
let blocks t = t.blocks
let n_blocks t = Array.length t.blocks

let block_index t label =
  match Hashtbl.find_opt t.index label with
  | Some i -> i
  | None -> raise (Malformed (Printf.sprintf "unknown block label %s" label))

let block t label = t.blocks.(block_index t label)
let entry_block t = t.blocks.(t.entry_index)
let mem t label = Hashtbl.mem t.index label

let append_block t b =
  let l = Block.label b in
  if Hashtbl.mem t.index l then
    raise (Malformed (Printf.sprintf "duplicate block label %s" l));
  t.blocks <- Array.append t.blocks [| b |];
  Hashtbl.add t.index l (Array.length t.blocks - 1)

let preds_table t =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun b -> Hashtbl.replace tbl (Block.label b) []) t.blocks;
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur =
            match Hashtbl.find_opt tbl s with Some l -> l | None -> []
          in
          Hashtbl.replace tbl s (Block.label b :: cur))
        (Block.succ_labels b))
    t.blocks;
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl;
  tbl

let build_edges t =
  let n = Array.length t.blocks in
  let succs =
    Array.map
      (fun b -> Array.of_list (List.map (block_index t) (Block.succ_labels b)))
      t.blocks
  in
  let degree = Array.make n 0 in
  Array.iter (Array.iter (fun j -> degree.(j) <- degree.(j) + 1)) succs;
  let preds = Array.init n (fun j -> Array.make degree.(j) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i s ->
      Array.iter
        (fun j ->
          preds.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        s)
    succs;
  { succs; preds }

let same_targets (x : Block.terminator) (y : Block.terminator) =
  match x, y with
  | Jump a, Jump b -> String.equal a b
  | Branch a, Branch b ->
    String.equal a.ifso b.ifso && String.equal a.ifnot b.ifnot
  | Ret, Ret -> true
  | (Jump _ | Branch _ | Ret), _ -> false

(* The cache holds while every block and terminator is the one it was
   built from. A terminator rewritten to the same targets (the scan
   rewrites every branch's operands) is adopted into the cache, so the
   next read compares physically again. Anything else (an appended,
   reordered or replaced block, a retargeted or reset terminator) makes
   the tables stale, and they are rebuilt. *)
let current c blocks =
  let n = Array.length blocks in
  n = Array.length c.c_blocks
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    let b = blocks.(!i) in
    if b != c.c_blocks.(!i) then ok := false
    else begin
      let tm = Block.term b in
      if tm != c.c_terms.(!i) then
        if same_targets tm c.c_terms.(!i) then c.c_terms.(!i) <- tm
        else ok := false
    end;
    incr i
  done;
  !ok

let edge_tables t =
  match t.cache with
  | Some c when current c t.blocks -> c.c_edges
  | Some _ | None ->
    let c_edges = build_edges t in
    t.cache <-
      Some
        {
          c_blocks = Array.copy t.blocks;
          c_terms = Array.map Block.term t.blocks;
          c_edges;
        };
    c_edges

let iter_blocks f t = Array.iter f t.blocks

let validate t =
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (mem t s) then
            raise
              (Malformed
                 (Printf.sprintf "block %s targets unknown label %s"
                    (Block.label b) s)))
        (Block.succ_labels b))
    t.blocks

let pp fmt t =
  Array.iteri
    (fun i b ->
      if i > 0 then Format.fprintf fmt "@,";
      Block.pp fmt b)
    t.blocks

(* The copy's blocks carry the same terminators, so a current cache
   carries over. *)
let copy t =
  let blocks = Array.map Block.copy t.blocks in
  let cache =
    match t.cache with
    | Some c when current c t.blocks ->
      Some
        { c with c_blocks = Array.copy blocks; c_terms = Array.copy c.c_terms }
    | Some _ | None -> None
  in
  {
    entry = t.entry;
    blocks;
    index = Hashtbl.copy t.index;
    entry_index = t.entry_index;
    cache;
  }

let reorder t labels =
  let n = Array.length t.blocks in
  if List.length labels <> n then
    raise (Malformed "reorder: wrong number of labels");
  let blocks =
    Array.of_list (List.map (fun l -> t.blocks.(block_index t l)) labels)
  in
  (match labels with
  | first :: _ when first = t.entry -> ()
  | _ -> raise (Malformed "reorder: entry must stay first"));
  t.blocks <- blocks;
  reindex t
