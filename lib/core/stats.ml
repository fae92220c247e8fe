type t = {
  mutable evict_loads : int;
  mutable evict_stores : int;
  mutable evict_moves : int;
  mutable resolve_loads : int;
  mutable resolve_stores : int;
  mutable resolve_moves : int;
  mutable slots : int;
  mutable frame_saved : int;
  mutable dataflow_rounds : int;
  mutable resolve_pairs : int;
  mutable coloring_iterations : int;
  mutable interference_edges : int;
  mutable coalesced_moves : int;
  mutable downgrades : int;
  mutable opt_nodes : int;
  mutable opt_proven : int;
  mutable alloc_time : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  pass_time : float array;
  pass_minor_words : float array;
}

type pass =
  | Liveness
  | Lifetime
  | Scan
  | Resolution
  | Copyprop
  | Dce
  | Motion
  | Peephole
  | Slots

let n_passes = 9

let pass_index = function
  | Liveness -> 0
  | Lifetime -> 1
  | Scan -> 2
  | Resolution -> 3
  | Copyprop -> 4
  | Dce -> 5
  | Motion -> 6
  | Peephole -> 7
  | Slots -> 8

let pass_name = function
  | Liveness -> "liveness"
  | Lifetime -> "lifetime"
  | Scan -> "scan"
  | Resolution -> "resolution"
  | Copyprop -> "copyprop"
  | Dce -> "dce"
  | Motion -> "motion"
  | Peephole -> "peephole"
  | Slots -> "slots"

let create () =
  {
    evict_loads = 0;
    evict_stores = 0;
    evict_moves = 0;
    resolve_loads = 0;
    resolve_stores = 0;
    resolve_moves = 0;
    slots = 0;
    frame_saved = 0;
    dataflow_rounds = 0;
    resolve_pairs = 0;
    coloring_iterations = 0;
    interference_edges = 0;
    coalesced_moves = 0;
    downgrades = 0;
    opt_nodes = 0;
    opt_proven = 0;
    alloc_time = 0.;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    pass_time = Array.make n_passes 0.;
    pass_minor_words = Array.make n_passes 0.;
  }

let total_spill s =
  s.evict_loads + s.evict_stores + s.evict_moves + s.resolve_loads
  + s.resolve_stores + s.resolve_moves

(* Elapsed time on the monotonic clock: a wall-clock step can neither
   skew nor negate a duration. *)
let seconds_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(* Elapsed, not [Sys.time]: process CPU time aggregates over every
   running domain, which would overstate each pass once allocation fans
   out across domains. [Gc.minor_words] is per-domain, so the delta is
   this pass's own allocation even when several domains run passes
   concurrently. *)
let timed s pass f =
  let t0 = Monotonic_clock.now () in
  let w0 = Gc.minor_words () in
  let account () =
    let i = pass_index pass in
    s.pass_time.(i) <- s.pass_time.(i) +. seconds_since t0;
    s.pass_minor_words.(i) <-
      s.pass_minor_words.(i) +. (Gc.minor_words () -. w0)
  in
  match f () with
  | v ->
    account ();
    v
  | exception e ->
    account ();
    raise e

(* Delta from a [Gc.quick_stat] snapshot taken earlier {e on the same
   domain} (quick_stat reads the current domain's counters). *)
let record_gc_since s (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  s.minor_words <- s.minor_words +. (g1.minor_words -. g0.minor_words);
  s.promoted_words <-
    s.promoted_words +. (g1.promoted_words -. g0.promoted_words);
  s.major_words <- s.major_words +. (g1.major_words -. g0.major_words);
  s.minor_collections <-
    s.minor_collections + (g1.minor_collections - g0.minor_collections);
  s.major_collections <-
    s.major_collections + (g1.major_collections - g0.major_collections)

let add ~into s =
  into.evict_loads <- into.evict_loads + s.evict_loads;
  into.evict_stores <- into.evict_stores + s.evict_stores;
  into.evict_moves <- into.evict_moves + s.evict_moves;
  into.resolve_loads <- into.resolve_loads + s.resolve_loads;
  into.resolve_stores <- into.resolve_stores + s.resolve_stores;
  into.resolve_moves <- into.resolve_moves + s.resolve_moves;
  into.slots <- into.slots + s.slots;
  into.frame_saved <- into.frame_saved + s.frame_saved;
  into.dataflow_rounds <- max into.dataflow_rounds s.dataflow_rounds;
  into.resolve_pairs <- into.resolve_pairs + s.resolve_pairs;
  into.coloring_iterations <-
    max into.coloring_iterations s.coloring_iterations;
  into.interference_edges <- into.interference_edges + s.interference_edges;
  into.coalesced_moves <- into.coalesced_moves + s.coalesced_moves;
  into.downgrades <- into.downgrades + s.downgrades;
  into.opt_nodes <- into.opt_nodes + s.opt_nodes;
  into.opt_proven <- into.opt_proven + s.opt_proven;
  into.alloc_time <- into.alloc_time +. s.alloc_time;
  into.minor_words <- into.minor_words +. s.minor_words;
  into.promoted_words <- into.promoted_words +. s.promoted_words;
  into.major_words <- into.major_words +. s.major_words;
  into.minor_collections <- into.minor_collections + s.minor_collections;
  into.major_collections <- into.major_collections + s.major_collections;
  for i = 0 to n_passes - 1 do
    into.pass_time.(i) <- into.pass_time.(i) +. s.pass_time.(i);
    into.pass_minor_words.(i) <-
      into.pass_minor_words.(i) +. s.pass_minor_words.(i)
  done

let pp fmt s =
  Format.fprintf fmt
    "@[<v>evict: %d loads, %d stores, %d moves@,\
     resolve: %d loads, %d stores, %d moves@,\
     slots: %d; dataflow rounds: %d; resolution comparisons: %d; \
     coloring iterations: %d"
    s.evict_loads s.evict_stores s.evict_moves s.resolve_loads
    s.resolve_stores s.resolve_moves s.slots s.dataflow_rounds
    s.resolve_pairs s.coloring_iterations;
  if s.frame_saved > 0 then
    Format.fprintf fmt "@,frame words saved by slot compaction: %d"
      s.frame_saved;
  if s.downgrades > 0 then
    Format.fprintf fmt "@,deadline downgrades: %d" s.downgrades;
  if s.opt_nodes > 0 then
    Format.fprintf fmt
      "@,branch-and-bound: %d nodes, %d functions proven optimal" s.opt_nodes
      s.opt_proven;
  let ms fmt ps =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (fun fmt p ->
        Format.fprintf fmt "%s %.2f" (pass_name p)
          (1e3 *. s.pass_time.(pass_index p)))
      fmt ps
  in
  let cleanup = [ Copyprop; Dce; Motion; Slots ] in
  if Array.exists (fun t -> t > 0.) s.pass_time then begin
    Format.fprintf fmt "@,pass times (ms): %a" ms
      [ Liveness; Lifetime; Scan; Resolution; Peephole ];
    if List.exists (fun p -> s.pass_time.(pass_index p) > 0.) cleanup then
      Format.fprintf fmt "@,pipeline times (ms): %a" ms cleanup
  end;
  if s.minor_words > 0. then
    Format.fprintf fmt
      "@,gc: %.0f minor words (%.0f promoted, %.0f major), %d minor / %d \
       major collections"
      s.minor_words s.promoted_words s.major_words s.minor_collections
      s.major_collections;
  Format.fprintf fmt "@]"
