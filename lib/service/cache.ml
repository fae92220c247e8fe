type entry = { output : string; stats : Lsra.Stats.t; algo : string }

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(* Intrusive doubly-linked recency list: [head] is most-recently-used,
   [tail] least. Every operation is O(1) except whole-cache walks. *)
type node = {
  key : string;
  mutable payload : entry;
  mutable size : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  max_bytes : int;
  max_entries : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ?(max_bytes = 64 * 1024 * 1024) ?(max_entries = 4096) () =
  {
    max_bytes;
    max_entries;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let entry_size key e = String.length key + String.length e.output + 64

let copy_stats s =
  let c = Lsra.Stats.create () in
  Lsra.Stats.add ~into:c s;
  c

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.bytes <- t.bytes - n.size;
    t.evictions <- t.evictions + 1

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        (* The cached stats stay immutable: hand the caller a copy. *)
        Some { n.payload with stats = copy_stats n.payload.stats }
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key e =
  Mutex.protect t.lock (fun () ->
      let e = { e with stats = copy_stats e.stats } in
      let size = entry_size key e in
      (match Hashtbl.find_opt t.table key with
      | Some n ->
        (* Refresh in place: same content address, same payload bytes in
           the common case, but re-filling must still bump recency. *)
        unlink t n;
        Hashtbl.remove t.table n.key;
        t.bytes <- t.bytes - n.size
      | None -> ());
      if size <= t.max_bytes && t.max_entries > 0 then begin
        while
          Hashtbl.length t.table >= t.max_entries
          || t.bytes + size > t.max_bytes
        do
          evict_lru t
        done;
        let n = { key; payload = e; size; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        push_front t n;
        t.bytes <- t.bytes + size
      end)

let counters t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
      })

let lru_order t =
  Mutex.protect t.lock (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some n -> walk (n.key :: acc) n.next
      in
      walk [] t.head)
