open Lsra_ir

type t = { depth : int array; headers : int list }

let compute cfg =
  let n = Cfg.n_blocks cfg in
  let edges = Cfg.edge_tables cfg in
  let dom = Dom.compute cfg in
  (* Back edges: n -> h with h dominating n. Collect the natural loop body
     of each header by walking predecessors backwards from each latch. *)
  let loops = Array.make n None in
  for i = 0 to n - 1 do
    if Dom.reachable dom i then
      Array.iter
        (fun h ->
          if Dom.dominates dom h i then begin
            let body =
              match loops.(h) with
              | Some s -> s
              | None ->
                let s = Bitset.create n in
                Bitset.add s h;
                loops.(h) <- Some s;
                s
            in
            let rec back j =
              if not (Bitset.mem body j) then begin
                Bitset.add body j;
                Array.iter back edges.preds.(j)
              end
            in
            back i
          end)
        edges.succs.(i)
  done;
  let depth = Array.make n 0 in
  let headers = ref [] in
  for h = n - 1 downto 0 do
    match loops.(h) with
    | None -> ()
    | Some body ->
      headers := h :: !headers;
      Bitset.iter (fun j -> depth.(j) <- depth.(j) + 1) body
  done;
  { depth; headers = !headers }

let depth t i = t.depth.(i)
let headers t = t.headers
let max_depth t = Array.fold_left max 0 t.depth
