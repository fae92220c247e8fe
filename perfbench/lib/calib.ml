(* Host-speed calibration. A shared host changes speed by 10% up to a
   factor of two for seconds to minutes at a time, and no best-of inside
   one run removes a slowdown that lasts the whole run. So the suite cuts
   its timed work into chunks of about [every_ns], times a fixed
   computation of its own, [kernel], at the end of each chunk, and
   scales every timing of the chunk to the host speed at which [kernel]
   takes [nominal_ns]: raw time x nominal_ns / kernel time.

   The kernel is allocating OCaml like the code under test: it builds
   and folds an integer map, sorts a list and fills a string-keyed hash
   table. On a 2-vCPU x86-64 host, over 15-second windows, the quartile
   spread of the median ratio of a jit-small compile chunk to the kernel
   timed just after it was 2-3%, against 10-25% for the raw chunk times
   and 4-6% with a pointer-chasing kernel that allocated nothing.

   The kernel must not depend on the heap the code under test leaves
   behind, or a change to that code would move the scale. Each round
   starts on an emptied minor heap and allocates less than the minor
   heap holds, so the kernel never collects and never does major GC
   work on anyone's behalf; it leaves only garbage. *)

module Int_map = Map.Make (Int)

(* One round: about 170k words allocated, all dead when it returns. *)
let round r =
  let m = ref Int_map.empty in
  for i = 1 to 1500 do
    m := Int_map.add (((i * 7919) + r) land 4095) i !m
  done;
  let sum = Int_map.fold (fun k v acc -> acc + k + v) !m 0 in
  let l = List.init 1500 (fun i -> ((i * 104729) + r) land 65535) in
  let h = Hashtbl.create 64 in
  for i = 1 to 500 do
    Hashtbl.replace h (string_of_int (i * r)) i
  done;
  sum + List.hd (List.sort compare l) + Hashtbl.length h

let rounds = 4

(* The kernel's time in ns: [rounds] rounds, each on an empty minor
   heap; the minor collections before them are not timed. *)
let kernel_ns () =
  let total = ref 0 in
  for r = 1 to rounds do
    Gc.minor ();
    let t0 = Spans.now_ns () in
    ignore (Sys.opaque_identity (round r));
    total := !total + (Spans.now_ns () - t0)
  done;
  !total

(* The kernel's time on the host the benchmark was defined on, in a
   calm stretch. *)
let nominal_ns = 1_100_000

type t = {
  every_ns : int;
  mutable chunk_start : int;
  mutable ended : int;
  mutable kernels : int list;  (** kernel ns of each ended chunk, newest first *)
}

let create ?(every_ns = 200_000_000) () =
  { every_ns; chunk_start = Spans.now_ns (); ended = 0; kernels = [] }

(* The chunk a timing taken now belongs to. *)
let chunk t = t.ended

(* Ends the current chunk: the better of two kernel runs. *)
let cut t =
  let k = min (kernel_ns ()) (kernel_ns ()) in
  t.kernels <- k :: t.kernels;
  t.ended <- t.ended + 1;
  t.chunk_start <- Spans.now_ns ()

(* Ends the current chunk if it has lasted [every_ns]. Call it between
   timed operations. *)
let tick t = if Spans.now_ns () - t.chunk_start >= t.every_ns then cut t

(* The scale of every ended chunk: multiply a time by it, divide a rate
   by it. A chunk's timings can only be scaled once it has ended. *)
let scales t =
  Array.of_list (List.rev_map (fun k -> float_of_int nominal_ns /. float_of_int k) t.kernels)

let kernel_times t = Array.of_list (List.rev t.kernels)
