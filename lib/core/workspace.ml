open Lsra_ir

(* Domain-local scratch for the allocation hot paths. One workspace per
   domain, fetched through [Domain.DLS], reused across every function that
   domain allocates: in steady state [Lifetime.compute] touches only these
   preallocated buffers plus the exact-size output arrays it hands back,
   so the per-function garbage is a handful of arrays instead of tens of
   thousands of list cells. *)

type buf = { mutable a : int array; mutable n : int }

let buf_make cap = { a = Array.make cap 0; n = 0 }

let buf_reserve b cap =
  if Array.length b.a < cap then begin
    let a' = Array.make (max cap (2 * Array.length b.a)) 0 in
    Array.blit b.a 0 a' 0 b.n;
    b.a <- a'
  end

let buf_clear b = b.n <- 0

let buf_push b v =
  if b.n = Array.length b.a then buf_reserve b (b.n + 1);
  b.a.(b.n) <- v;
  b.n <- b.n + 1

type t = {
  (* Per-id scratch, ids = temps then registers; valid for [0, n_ids). *)
  mutable open_end : int array;
  mutable cnt : int array;
  mutable off : int array; (* n_ids + 1 *)
  mutable known : Bytes.t; (* per temp: temp value recorded *)
  mutable temp_of : Temp.t array; (* per temp, valid where [known] set *)
  (* Temp ids whose segment was opened in the current block. *)
  opened : buf;
  (* Closed-segment events, appended during the reverse sweep: per id in
     decreasing position order. *)
  ev_id : buf;
  ev_s : buf;
  ev_e : buf;
  (* Reference events, appended during the forward walk: per temp in
     increasing position order. *)
  rf_id : buf;
  rf_pos : buf;
  rf_meta : buf;
  (* Bucketed segment scratch (arena order -> per-id slices), compacted
     in place before the exact-size copy out. *)
  sg_s : buf;
  sg_e : buf;
  (* The binpack scan's output for its current block, grown on demand
     and kept: a buffer grown from empty in every scan churned large
     arrays through the major heap and raised the peak RSS. *)
  mutable body : Instr.t array;
  (* The binpack scan's location-change log (temp ids in scan order) and
     the number of scans started on this domain, which owns the log. *)
  changes : buf;
  mutable scans : int;
  (* Resolution's pass-1 repairs, four ints each. *)
  edge_ops : buf;
}

let create () =
  {
    open_end = [||];
    cnt = [||];
    off = [||];
    known = Bytes.empty;
    temp_of = [||];
    opened = buf_make 64;
    ev_id = buf_make 256;
    ev_s = buf_make 256;
    ev_e = buf_make 256;
    rf_id = buf_make 256;
    rf_pos = buf_make 256;
    rf_meta = buf_make 256;
    sg_s = buf_make 256;
    sg_e = buf_make 256;
    body = [||];
    changes = buf_make 256;
    scans = 0;
    edge_ops = buf_make 64;
  }

let dummy_temp = Temp.make ~cls:Rclass.Int 0

(* Size the per-id scratch for [n_temps] temporaries and [n_ids] total
   ids (temps + machine registers), and reset what must start clean. *)
let reset ws ~n_temps ~n_ids =
  if Array.length ws.open_end < n_ids then begin
    let cap = max n_ids (2 * Array.length ws.open_end) in
    ws.open_end <- Array.make cap (-1);
    ws.cnt <- Array.make cap 0;
    ws.off <- Array.make (cap + 1) 0
  end;
  if Bytes.length ws.known < n_temps then begin
    let cap = max n_temps (2 * Bytes.length ws.known) in
    ws.known <- Bytes.make cap '\000';
    ws.temp_of <- Array.make cap dummy_temp
  end;
  Array.fill ws.open_end 0 n_ids (-1);
  Array.fill ws.cnt 0 n_ids 0;
  Bytes.fill ws.known 0 n_temps '\000';
  buf_clear ws.opened;
  buf_clear ws.ev_id;
  buf_clear ws.ev_s;
  buf_clear ws.ev_e;
  buf_clear ws.rf_id;
  buf_clear ws.rf_pos;
  buf_clear ws.rf_meta;
  buf_clear ws.sg_s;
  buf_clear ws.sg_e

let key = Domain.DLS.new_key create
let get () = Domain.DLS.get key
