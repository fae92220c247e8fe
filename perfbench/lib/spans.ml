(* In-memory span buffer for the traced run: one span per call the suite
   makes into a layer, recorded with the monotonic clock and the minor
   words the call allocated. Storage is a set of parallel arrays sized
   up front (and doubled if a pass outgrows them), so recording a span
   allocates nothing.

   A span's parent is the span that encloses it. A [detached] span is a
   probe: it runs inside its unit's interval but is not part of the real
   chain (for example liveness recomputed on a copy inside the scan's
   span), so it is charged to its own layer, taken out of its parent's
   self time, and excluded from the unit's wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable name : string array;
  mutable parent : int array;
  mutable unit_id : int array;
  mutable detached : bool array;
  mutable start_ns : int array;
  mutable end_ns : int array;
  mutable words0 : float array;
  mutable minor_words : float array;
}

let create capacity =
  let capacity = max 1 capacity in
  {
    len = 0;
    name = Array.make capacity "";
    parent = Array.make capacity (-1);
    unit_id = Array.make capacity 0;
    detached = Array.make capacity false;
    start_ns = Array.make capacity 0;
    end_ns = Array.make capacity 0;
    words0 = Array.make capacity 0.;
    minor_words = Array.make capacity 0.;
  }

let clear t = t.len <- 0
let length t = t.len

let grow t =
  let ext a fill = Array.append a (Array.make (Array.length a) fill) in
  t.name <- ext t.name "";
  t.parent <- ext t.parent (-1);
  t.unit_id <- ext t.unit_id 0;
  t.detached <- ext t.detached false;
  t.start_ns <- ext t.start_ns 0;
  t.end_ns <- ext t.end_ns 0;
  t.words0 <- ext t.words0 0.;
  t.minor_words <- ext t.minor_words 0.

(* Open a span and return its index; the clock is read last so the
   bookkeeping is not charged to the span. *)
let enter ?(detached = false) t ~name ~parent ~unit_id =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.unit_id.(i) <- unit_id;
  t.detached.(i) <- detached;
  t.words0.(i) <- Gc.minor_words ();
  t.start_ns.(i) <- now_ns ();
  i

let leave t i =
  t.end_ns.(i) <- now_ns ();
  t.minor_words.(i) <- Gc.minor_words () -. t.words0.(i)

(* [span t ~name ~parent ~unit_id f] times [f ()] as one span. *)
let span ?detached t ~name ~parent ~unit_id f =
  let i = enter ?detached t ~name ~parent ~unit_id in
  let v = f () in
  leave t i;
  v

let duration t i = t.end_ns.(i) - t.start_ns.(i)

(* Self time and self minor words of every span: its own minus those of
   its children, detached ones included. *)
let self_times t =
  let ns = Array.init t.len (duration t) in
  let words = Array.sub t.minor_words 0 t.len in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      ns.(p) <- ns.(p) - duration t i;
      words.(p) <- words.(p) -. t.minor_words.(i)
    end
  done;
  (ns, words)

(* Unit wall and unattributed residual of every root span (parent -1),
   as (root, wall_ns, residual_ns). The wall is the root's duration less
   the unit's detached spans; the residual is the wall less the self
   times of the unit's other attached spans, i.e. time inside the unit
   that no layer span covers. *)
let roots t =
  let self, _ = self_times t in
  let detached_ns = Hashtbl.create 64 and layers_ns = Hashtbl.create 64 in
  let sum tbl u = Option.value ~default:0 (Hashtbl.find_opt tbl u) in
  let bump tbl u d = Hashtbl.replace tbl u (d + sum tbl u) in
  for i = 0 to t.len - 1 do
    if t.detached.(i) then bump detached_ns t.unit_id.(i) (duration t i)
    else if t.parent.(i) >= 0 then bump layers_ns t.unit_id.(i) self.(i)
  done;
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.parent.(i) < 0 && not t.detached.(i) then begin
      let wall = duration t i - sum detached_ns t.unit_id.(i) in
      acc := (i, wall, wall - sum layers_ns t.unit_id.(i)) :: !acc
    end
  done;
  !acc

(* Self time and self minor words summed per span name, roots
   excluded. *)
let totals_by_name t =
  let ns, words = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) >= 0 || t.detached.(i) then begin
      let n, w = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl t.name.(i)) in
      Hashtbl.replace tbl t.name.(i) (n + ns.(i), w +. words.(i))
    end
  done;
  tbl

let to_json t =
  let b = Buffer.create (t.len * 96) in
  Buffer.add_string b "[";
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":%S,\"unit\":%d,\"parent\":%d,\"detached\":%b,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%.0f}"
      t.name.(i) t.unit_id.(i) t.parent.(i) t.detached.(i) t.start_ns.(i)
      t.end_ns.(i) t.minor_words.(i)
  done;
  Buffer.add_string b "]";
  Buffer.contents b
