type t = {
  entry : string;
  mutable blocks : Block.t array;
  index : (string, int) Hashtbl.t;
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
    t.blocks

let create ~entry blocks =
  let t = { entry; blocks = Array.of_list blocks; index = Hashtbl.create 16 } in
  reindex t;
  if not (Hashtbl.mem t.index entry) then
    raise (Malformed (Printf.sprintf "entry block %s missing" entry));
  t

let entry t = t.entry
let blocks t = t.blocks
let n_blocks t = Array.length t.blocks

let block_index t label =
  match Hashtbl.find_opt t.index label with
  | Some i -> i
  | None -> raise (Malformed (Printf.sprintf "unknown block label %s" label))

let block t label = t.blocks.(block_index t label)
let entry_block t = block t t.entry
let mem t label = Hashtbl.mem t.index label

let append_block t b =
  let l = Block.label b in
  if Hashtbl.mem t.index l then
    raise (Malformed (Printf.sprintf "duplicate block label %s" l));
  t.blocks <- Array.append t.blocks [| b |];
  Hashtbl.add t.index l (Array.length t.blocks - 1)

let succs t b = List.map (block t) (Block.succ_labels b)

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

type edges = { succs : int array array; preds : int array array }

let edge_tables t =
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

let edges t =
  Array.to_list t.blocks
  |> List.concat_map (fun b ->
         List.map (fun s -> (Block.label b, s)) (Block.succ_labels b))

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

let copy t =
  let t' =
    {
      entry = t.entry;
      blocks = Array.map Block.copy t.blocks;
      index = Hashtbl.copy t.index;
    }
  in
  t'

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
