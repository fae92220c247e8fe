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
  mutable time_liveness : float;
  mutable time_lifetime : float;
  mutable time_scan : float;
  mutable time_resolution : float;
  mutable time_copyprop : float;
  mutable time_dce : float;
  mutable time_motion : float;
  mutable time_peephole : float;
  mutable time_slots : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
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
    time_liveness = 0.;
    time_lifetime = 0.;
    time_scan = 0.;
    time_resolution = 0.;
    time_copyprop = 0.;
    time_dce = 0.;
    time_motion = 0.;
    time_peephole = 0.;
    time_slots = 0.;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    pass_minor_words = Array.make n_passes 0.;
  }

let total_spill s =
  s.evict_loads + s.evict_stores + s.evict_moves + s.resolve_loads
  + s.resolve_stores + s.resolve_moves

let add_pass_time s pass dt =
  match pass with
  | Liveness -> s.time_liveness <- s.time_liveness +. dt
  | Lifetime -> s.time_lifetime <- s.time_lifetime +. dt
  | Scan -> s.time_scan <- s.time_scan +. dt
  | Resolution -> s.time_resolution <- s.time_resolution +. dt
  | Copyprop -> s.time_copyprop <- s.time_copyprop +. dt
  | Dce -> s.time_dce <- s.time_dce +. dt
  | Motion -> s.time_motion <- s.time_motion +. dt
  | Peephole -> s.time_peephole <- s.time_peephole +. dt
  | Slots -> s.time_slots <- s.time_slots +. dt

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
    add_pass_time s pass (seconds_since t0);
    let i = pass_index pass in
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
  into.time_liveness <- into.time_liveness +. s.time_liveness;
  into.time_lifetime <- into.time_lifetime +. s.time_lifetime;
  into.time_scan <- into.time_scan +. s.time_scan;
  into.time_resolution <- into.time_resolution +. s.time_resolution;
  into.time_copyprop <- into.time_copyprop +. s.time_copyprop;
  into.time_dce <- into.time_dce +. s.time_dce;
  into.time_motion <- into.time_motion +. s.time_motion;
  into.time_peephole <- into.time_peephole +. s.time_peephole;
  into.time_slots <- into.time_slots +. s.time_slots;
  into.minor_words <- into.minor_words +. s.minor_words;
  into.promoted_words <- into.promoted_words +. s.promoted_words;
  into.major_words <- into.major_words +. s.major_words;
  into.minor_collections <- into.minor_collections + s.minor_collections;
  into.major_collections <- into.major_collections + s.major_collections;
  for i = 0 to n_passes - 1 do
    into.pass_minor_words.(i) <-
      into.pass_minor_words.(i) +. s.pass_minor_words.(i)
  done

let pp fmt s =
  Format.fprintf fmt
    "@[<v>evict: %d loads, %d stores, %d moves@,\
     resolve: %d loads, %d stores, %d moves@,\
     slots: %d; dataflow rounds: %d; resolution comparisons: %d; \
     coloring iterations: %d@]"
    s.evict_loads s.evict_stores s.evict_moves s.resolve_loads
    s.resolve_stores s.resolve_moves s.slots s.dataflow_rounds
    s.resolve_pairs s.coloring_iterations;
  if s.frame_saved > 0 then
    Format.fprintf fmt "@,@[<v>frame words saved by slot compaction: %d@]"
      s.frame_saved;
  if s.downgrades > 0 then
    Format.fprintf fmt "@,@[<v>deadline downgrades: %d@]" s.downgrades;
  if s.opt_nodes > 0 then
    Format.fprintf fmt
      "@,@[<v>branch-and-bound: %d nodes, %d functions proven optimal@]"
      s.opt_nodes s.opt_proven;
  let ttotal =
    s.time_liveness +. s.time_lifetime +. s.time_scan +. s.time_resolution
    +. s.time_copyprop +. s.time_dce +. s.time_motion +. s.time_peephole
    +. s.time_slots
  in
  if ttotal > 0. then begin
    Format.fprintf fmt
      "@,@[<v>pass times (ms): liveness %.2f, lifetime %.2f, scan %.2f, \
       resolution %.2f, peephole %.2f@]"
      (1e3 *. s.time_liveness) (1e3 *. s.time_lifetime) (1e3 *. s.time_scan)
      (1e3 *. s.time_resolution) (1e3 *. s.time_peephole);
    let cleanup =
      s.time_copyprop +. s.time_dce +. s.time_motion +. s.time_slots
    in
    if cleanup > 0. then
      Format.fprintf fmt
        "@,@[<v>pipeline times (ms): copyprop %.2f, dce %.2f, motion %.2f, \
         slots %.2f@]"
        (1e3 *. s.time_copyprop) (1e3 *. s.time_dce) (1e3 *. s.time_motion)
        (1e3 *. s.time_slots)
  end;
  if s.minor_words > 0. then
    Format.fprintf fmt
      "@,@[<v>gc: %.0f minor words (%.0f promoted, %.0f major), %d minor / \
       %d major collections@]"
      s.minor_words s.promoted_words s.major_words s.minor_collections
      s.major_collections
