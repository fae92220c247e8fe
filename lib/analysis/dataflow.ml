open Lsra_ir

type direction = Forward | Backward
type meet = Union | Inter

type result = { in_of : Bitset.t array; out_of : Bitset.t array }

let seed_inter ~direction ~width in_of out_of =
  (* With Inter meet, a not-yet-computed input must act as "top" (all
     ones): seed the met-side vectors with the universe and descend to the
     fixed point. *)
  Array.iter
    (fun v ->
      for i = 0 to width - 1 do
        Bitset.add v i
      done)
    (match direction with Forward -> in_of | Backward -> out_of)

(* Worklist solver: blocks are processed in linear order (forward
   problems) or reverse linear order (backward problems) — the layouts the
   CFG builder produces make these approximations of reverse postorder, so
   acyclic stretches converge within a sweep and only back edges carry
   work into the next one. A sweep visits only blocks whose input changed;
   [rounds] counts sweeps that had any such block, which coincides with
   the round-robin iteration count the paper reports for its "two or three
   iterations" observation. *)
let solve cfg ~direction ~meet ~width ~gen ~kill ?(rounds = ref 0) () =
  let n = Cfg.n_blocks cfg in
  (* The CFG's integer successor/predecessor tables: the inner loop never
     touches a Hashtbl or allocates a list. *)
  let { Cfg.succs; preds } = Cfg.edge_tables cfg in
  let in_of = Array.init n (fun _ -> Bitset.create width) in
  let out_of = Array.init n (fun _ -> Bitset.create width) in
  let gens = Array.init n gen in
  let kills = Array.init n kill in
  let feed = match direction with Forward -> preds | Backward -> succs in
  let dependents =
    match direction with Forward -> succs | Backward -> preds
  in
  (* The vector the meet writes, and the transfer's output vector. *)
  let meet_dst = match direction with Forward -> in_of | Backward -> out_of in
  let meet_src = match direction with Forward -> out_of | Backward -> in_of in
  let transfer_dst =
    match direction with Forward -> out_of | Backward -> in_of
  in
  let entry_i = Cfg.entry_index cfg in
  (match meet with
  | Union -> ()
  | Inter -> seed_inter ~direction ~width in_of out_of);
  (match direction, meet with
  | Forward, Inter -> Bitset.clear in_of.(entry_i)
  | Forward, Union | Backward, (Union | Inter) -> ());
  let boundary i =
    (* The boundary block's met-side vector is pinned: the entry of a
       forward problem, exit blocks of a backward one. *)
    match direction with
    | Forward -> i = entry_i
    | Backward -> Array.length feed.(i) = 0
  in
  let scratch = Bitset.create width in
  let dirty = Array.make n true in
  let pending = ref n in
  while !pending > 0 do
    incr rounds;
    for sweep = 0 to n - 1 do
      let i =
        match direction with Forward -> sweep | Backward -> n - 1 - sweep
      in
      if dirty.(i) then begin
        dirty.(i) <- false;
        decr pending;
        if not (boundary i) then begin
          let nbs = feed.(i) in
          match meet with
          | Union ->
            Array.iter
              (fun j ->
                ignore (Bitset.union_into ~dst:meet_dst.(i) ~src:meet_src.(j)))
              nbs
          | Inter ->
            if Array.length nbs > 0 then begin
              Bitset.assign ~dst:scratch ~src:meet_src.(nbs.(0));
              for k = 1 to Array.length nbs - 1 do
                ignore (Bitset.inter_into ~dst:scratch ~src:meet_src.(nbs.(k)))
              done;
              Bitset.assign ~dst:meet_dst.(i) ~src:scratch
            end
        end;
        (* transfer: result = gen ∪ (meet_result − kill), built in the
           reusable scratch vector. *)
        Bitset.assign ~dst:scratch ~src:meet_dst.(i);
        ignore (Bitset.diff_into ~dst:scratch ~src:kills.(i));
        ignore (Bitset.union_into ~dst:scratch ~src:gens.(i));
        if not (Bitset.equal scratch transfer_dst.(i)) then begin
          Bitset.assign ~dst:transfer_dst.(i) ~src:scratch;
          Array.iter
            (fun j ->
              if not dirty.(j) then begin
                dirty.(j) <- true;
                incr pending
              end)
            dependents.(i)
        end
      end
    done
  done;
  { in_of; out_of }

(* The original round-robin solver, kept as the oracle the worklist
   solver is property-tested against. Every sweep revisits every block
   until a full sweep changes nothing. *)
let solve_reference cfg ~direction ~meet ~width ~gen ~kill
    ?(rounds = ref 0) () =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  let preds = Cfg.preds_table cfg in
  let idx l = Cfg.block_index cfg l in
  let in_of = Array.init n (fun _ -> Bitset.create width) in
  let out_of = Array.init n (fun _ -> Bitset.create width) in
  let gens = Array.init n gen in
  let kills = Array.init n kill in
  let feed i =
    match direction with
    | Forward -> List.map idx (Hashtbl.find preds (Block.label blocks.(i)))
    | Backward -> List.map idx (Block.succ_labels blocks.(i))
  in
  let meet_dst i =
    match direction with Forward -> in_of.(i) | Backward -> out_of.(i)
  in
  let meet_src j =
    match direction with Forward -> out_of.(j) | Backward -> in_of.(j)
  in
  let apply_transfer i =
    let dst =
      match direction with Forward -> out_of.(i) | Backward -> in_of.(i)
    in
    let src = meet_dst i in
    let tmp = Bitset.copy src in
    ignore (Bitset.diff_into ~dst:tmp ~src:kills.(i));
    ignore (Bitset.union_into ~dst:tmp ~src:gens.(i));
    if Bitset.equal tmp dst then false
    else begin
      Bitset.assign ~dst ~src:tmp;
      true
    end
  in
  (match meet with
  | Union -> ()
  | Inter -> seed_inter ~direction ~width in_of out_of);
  (match direction, meet with
  | Forward, Inter -> Bitset.clear in_of.(idx (Cfg.entry cfg))
  | Forward, Union | Backward, (Union | Inter) -> ());
  let changed = ref true in
  while !changed do
    incr rounds;
    changed := false;
    let order =
      match direction with
      | Forward -> Array.init n (fun i -> i)
      | Backward -> Array.init n (fun i -> n - 1 - i)
    in
    Array.iter
      (fun i ->
        let dst = meet_dst i in
        let neighbours = feed i in
        let boundary =
          match direction with
          | Forward -> i = idx (Cfg.entry cfg)
          | Backward -> neighbours = []
        in
        if not boundary then begin
          match meet with
          | Union ->
            List.iter
              (fun j ->
                if Bitset.union_into ~dst ~src:(meet_src j) then changed := true)
              neighbours
          | Inter -> (
            match neighbours with
            | [] -> ()
            | first :: rest ->
              let acc = Bitset.copy (meet_src first) in
              List.iter
                (fun j -> ignore (Bitset.inter_into ~dst:acc ~src:(meet_src j)))
                rest;
              if not (Bitset.equal acc dst) then begin
                Bitset.assign ~dst ~src:acc;
                changed := true
              end)
        end;
        if apply_transfer i then changed := true)
      order
  done;
  { in_of; out_of }
