open Lsra_ir

type t = {
  entry : int;
  idom : int array; (* idom.(i) = linear index of immediate dominator; -1 if unreachable *)
}

let reverse_postorder (edges : Cfg.edges) entry =
  let n = Array.length edges.succs in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      Array.iter dfs edges.succs.(i);
      order := i :: !order
    end
  in
  dfs entry;
  let rpo_pos = Array.make n (-1) in
  List.iteri (fun pos i -> rpo_pos.(i) <- pos) !order;
  (Array.of_list !order, rpo_pos)

let compute cfg =
  let edges = Cfg.edge_tables cfg in
  let n = Cfg.n_blocks cfg in
  let entry = Cfg.entry_index cfg in
  let order, rpo = reverse_postorder edges entry in
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo.(!a) > rpo.(!b) do
        a := idom.(!a)
      done;
      while rpo.(!b) > rpo.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        if i <> entry then begin
          (* Meet over the predecessors processed so far. *)
          let new_idom =
            Array.fold_left
              (fun acc p ->
                if idom.(p) = -1 then acc
                else if acc = -1 then p
                else intersect acc p)
              (-1) edges.preds.(i)
          in
          if new_idom <> -1 && idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
        end)
      order
  done;
  { entry; idom }

let idom t i = if t.idom.(i) = i then None else Some t.idom.(i)
let reachable t i = t.idom.(i) <> -1

let dominates t a b =
  if t.idom.(a) = -1 || t.idom.(b) = -1 then false
  else begin
    let rec walk x = x = a || (x <> t.entry && walk t.idom.(x)) in
    walk b
  end
