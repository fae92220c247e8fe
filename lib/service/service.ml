open Lsra_ir
open Lsra_target

type config = {
  machine : Machine.t;
  cache_bytes : int;
  cache_entries : int;
  verify_cold : bool;
  spot_check : int;
  trace : Lsra.Trace.t option;
  shards : int;
  store_dir : string option;
  store_sync : Store.sync_mode;
  native : bool;
      (* cold fills must also emit x86-64 machine code, and cache keys
         carry the encoder fingerprint *)
}

let default_config machine =
  {
    machine;
    cache_bytes = 64 * 1024 * 1024;
    cache_entries = 4096;
    verify_cold = true;
    spot_check = 0;
    trace = None;
    shards = 1;
    store_dir = None;
    store_sync = Store.Never;
    native = false;
  }

type request = {
  req_id : string;
  source : string;
  algo : Lsra.Allocator.algorithm;
  passes : Lsra.Passes.t list;
  deadline : float option;
}

let request ?(algo = Lsra.Allocator.default_second_chance)
    ?(passes = Lsra.Passes.default) ?deadline ~id source =
  { req_id = id; source; algo; passes; deadline }

type response = {
  resp_id : string;
  output : string;
  key : string;
  cached : bool;
  downgraded_to : string option;
  stats : Lsra.Stats.t;
  elapsed : float;
}

exception Spot_check_failed of { req_id : string; key : string }

exception Native_emit_failed of { req_id : string; msg : string }

(* Raw-body memo: a digest of a request's bytes and of the header fields
   its cache key binds, mapped to that key. On a fixed machine the key is
   a pure function of those inputs, so an entry never goes stale; the
   bound only limits memory. First in, first out: a body dropped while
   still hot takes the full path once and is recorded again. *)
type memo = {
  keys : (string, string) Hashtbl.t;  (* body digest -> cache key *)
  order : string Queue.t;  (* body digests, oldest first *)
  capacity : int;
  memo_lock : Mutex.t;
}

type t = {
  cfg : config;
  (* One LRU per shard, indexed by the same restart-stable key hash
     that shards the persistent store; budgets are split evenly. *)
  caches : Cache.t array;
  store : Store.t option;
  warm_loaded : int;
  (* EWMA seconds-per-instruction, keyed by allocator short name (the
     options of a binpack variant barely move its asymptotics). *)
  rates : (string, float) Hashtbl.t;
  memo : memo option;  (* [None] when a cache budget is 0 *)
  mutable requests : int;
  mutable memo_hits : int;
  mutable downgrades : int;
  mutable spot_checks : int;
  mutable hit_seq : int;
  lock : Mutex.t;
}

let create cfg =
  let shards = max 1 cfg.shards in
  let caches =
    Array.init shards (fun _ ->
        Cache.create
          ~max_bytes:(cfg.cache_bytes / shards)
          ~max_entries:(cfg.cache_entries / shards)
          ())
  in
  let store =
    Option.map
      (fun dir ->
        Store.open_ ~dir ~shards ~sync:cfg.store_sync ())
      cfg.store_dir
  in
  (* Warm-load: replay the journal, oldest record first, so both cache
     contents and LRU recency survive the restart. *)
  let warm_loaded =
    match store with
    | None -> 0
    | Some st ->
      List.fold_left
        (fun n (key, algo, output) ->
          Cache.add
            caches.(Store.shard_of_key ~shards key)
            key
            { Cache.output; stats = Lsra.Stats.create (); algo };
          n + 1)
        0 (Store.load st)
  in
  {
    cfg = { cfg with shards };
    caches;
    store;
    warm_loaded;
    rates = Hashtbl.create 8;
    memo =
      (if cfg.cache_entries > 0 && cfg.cache_bytes > 0 then
         Some
           {
             keys = Hashtbl.create 64;
             order = Queue.create ();
             capacity = cfg.cache_entries;
             memo_lock = Mutex.create ();
           }
       else None);
    requests = 0;
    memo_hits = 0;
    downgrades = 0;
    spot_checks = 0;
    hit_seq = 0;
    lock = Mutex.create ();
  }

let config t = t.cfg
let store t = t.store

(* Batch-boundary durability point; a no-op without a store or under
   [Store.Never]. *)
let sync_store t = Option.iter Store.sync t.store

let shard_of t key =
  t.caches.(Store.shard_of_key ~shards:(Array.length t.caches) key)

let cache_find t key = Cache.find (shard_of t key) key

(* Insert into the owning shard's LRU, then journal (write-behind): the
   response is never gated on the disk write having any effect. *)
let cache_fill t key (e : Cache.entry) =
  Cache.add (shard_of t key) key e;
  match t.store with
  | None -> ()
  | Some st -> Store.append st ~key ~algo:e.Cache.algo ~output:e.Cache.output

(* The memo's key: the digest of the raw body, under the allocator (with
   its options), the normalized pass spec and the backend fingerprint.
   Every field but the last is NUL-free, so none can pass for another. *)
let body_digest ~backend ~passes (req : request) =
  Digest.string
    (String.concat "\x00"
       [
         Cachekey.algo_fingerprint req.algo;
         Lsra.Passes.to_spec passes;
         Option.value backend ~default:"";
         Digest.string req.source;
       ])

let memo_find m body =
  Mutex.protect m.memo_lock (fun () -> Hashtbl.find_opt m.keys body)

let memo_add m body key =
  Mutex.protect m.memo_lock (fun () ->
      if not (Hashtbl.mem m.keys body) then begin
        if Queue.length m.order >= m.capacity then
          Hashtbl.remove m.keys (Queue.pop m.order);
        Hashtbl.replace m.keys body key;
        Queue.push body m.order
      end)

type service_counters = {
  cache : Cache.counters;
  requests : int;
  downgrades : int;
  spot_checks : int;
  shards : int;
  warm_loaded : int;
  memo_hits : int;
  memo_entries : int;
}

let counters t =
  let cache =
    Array.fold_left
      (fun (acc : Cache.counters) c ->
        let k = Cache.counters c in
        {
          Cache.hits = acc.Cache.hits + k.Cache.hits;
          misses = acc.Cache.misses + k.Cache.misses;
          evictions = acc.Cache.evictions + k.Cache.evictions;
          entries = acc.Cache.entries + k.Cache.entries;
          bytes = acc.Cache.bytes + k.Cache.bytes;
        })
      { Cache.hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }
      t.caches
  in
  let memo_entries =
    match t.memo with
    | None -> 0
    | Some m -> Mutex.protect m.memo_lock (fun () -> Hashtbl.length m.keys)
  in
  Mutex.protect t.lock (fun () ->
      {
        cache;
        requests = t.requests;
        downgrades = t.downgrades;
        spot_checks = t.spot_checks;
        shards = Array.length t.caches;
        warm_loaded = t.warm_loaded;
        memo_hits = t.memo_hits;
        memo_entries;
      })

(* The cost model's prior: predicted allocation seconds per instruction
   before any observation. *)
let default_rate = 2e-7

let rate t algo =
  match Hashtbl.find_opt t.rates (Lsra.Allocator.short_name algo) with
  | Some r -> r
  | None -> default_rate

let predict t algo n_instrs =
  Mutex.protect t.lock (fun () -> rate t algo *. float_of_int (max 1 n_instrs))

let observe t algo n_instrs seconds =
  if n_instrs > 0 && seconds >= 0. then
    Mutex.protect t.lock (fun () ->
        let obs = seconds /. float_of_int n_instrs in
        let key = Lsra.Allocator.short_name algo in
        let blended =
          match Hashtbl.find_opt t.rates key with
          | Some old -> (0.7 *. old) +. (0.3 *. obs)
          | None -> obs
        in
        Hashtbl.replace t.rates key blended)

let n_instrs_of prog =
  List.fold_left (fun acc (_, f) -> acc + Func.n_instrs f) 0
    (Program.funcs prog)

(* Walk down the quality ladder from the requested algorithm until the
   cost model says the budget holds; the cheapest rung is taken
   unconditionally (blowing the budget slightly with Poletto beats not
   compiling at all). *)
let degrade t ~req_id ~budget ~n_instrs requested =
  let rec walk algo = function
    | [] -> algo
    | next :: rest ->
      if predict t algo n_instrs <= budget then algo else walk next rest
  in
  let effective = walk requested (Lsra.Allocator.below requested) in
  if
    Lsra.Allocator.short_name effective
    <> Lsra.Allocator.short_name requested
  then begin
    let predicted = predict t requested n_instrs in
    Mutex.protect t.lock (fun () ->
        t.downgrades <- t.downgrades + 1;
        match t.cfg.trace with
        | None -> ()
        | Some sink ->
          Lsra.Trace.emit sink
            (Lsra.Trace.Downgrade
               {
                 req = req_id;
                 from_algo = Lsra.Allocator.short_name requested;
                 to_algo = Lsra.Allocator.short_name effective;
                 budget;
                 predicted;
               }))
  end;
  effective

(* Request and compile walls come from the monotonic clock: a wall-clock
   step must neither skew a reported [wall-us] nor feed the cost model a
   negative sample. *)
let seconds_since = Lsra.Stats.seconds_since

let compile t ~req_id ~passes algo prog =
  let t0 = Monotonic_clock.now () in
  let stats =
    Lsra.Allocator.pipeline ~precheck:true ~verify:t.cfg.verify_cold ~passes
      algo t.cfg.machine prog
  in
  (* Native mode: the allocation only counts when it also encodes — a
     program the backend cannot emit must fail the request loudly, not
     poison the cache with an entry no native consumer can use. The
     machine code itself is not cached (it is cheap to re-emit and
     address-free by construction); the entry's key carries the encoder
     fingerprint instead. *)
  if t.cfg.native then begin
    match Lsra_native.Lower.compile t.cfg.machine prog with
    | Ok _ -> ()
    | Error msg -> raise (Native_emit_failed { req_id; msg })
  end;
  let dt = seconds_since t0 in
  (stats, dt)

(* Re-allocate a hit from scratch and require the cached payload
   byte-for-byte: the service-level differential oracle. It also vets
   entries warm-loaded from the journal — a corrupt record that parsed
   cleanly still cannot serve wrong bytes unnoticed. *)
let spot_check t ~req_id ~key ~canonical ~passes algo (entry : Cache.entry) =
  Mutex.protect t.lock (fun () -> t.spot_checks <- t.spot_checks + 1);
  let prog = Lsra_text.Ir_text.of_string canonical in
  ignore
    (Lsra.Allocator.pipeline ~precheck:true ~verify:false ~passes algo
       t.cfg.machine prog);
  let fresh = Lsra_text.Ir_text.to_string prog in
  if not (String.equal fresh entry.Cache.output) then
    raise (Spot_check_failed { req_id; key })

let handle t (req : request) =
  let t0 = Monotonic_clock.now () in
  Mutex.protect t.lock (fun () -> t.requests <- t.requests + 1);
  let passes = Lsra.Passes.normalize req.passes in
  let backend =
    if t.cfg.native then Some Lsra_native.Lower.fingerprint else None
  in
  let respond ~key ~cached ~downgraded_to ~output ~(stats : Lsra.Stats.t) =
    {
      resp_id = req.req_id;
      output;
      key;
      cached;
      downgraded_to;
      stats;
      elapsed = seconds_since t0;
    }
  in
  (* [canonical] is forced only by a due spot check. *)
  let serve_hit ~key ~downgraded_to ~canonical algo (entry : Cache.entry) =
    (let n =
       Mutex.protect t.lock (fun () ->
           t.hit_seq <- t.hit_seq + 1;
           t.hit_seq)
     in
     if t.cfg.spot_check > 0 && n mod t.cfg.spot_check = 0 then
       spot_check t ~req_id:req.req_id ~key ~canonical:(Lazy.force canonical)
         ~passes algo entry);
    let stats = entry.Cache.stats in
    if downgraded_to <> None then stats.Lsra.Stats.downgrades <- 1;
    respond ~key ~cached:true ~downgraded_to ~output:entry.Cache.output ~stats
  in
  let body =
    Option.map (fun m -> (m, body_digest ~backend ~passes req)) t.memo
  in
  (* A remembered key has been looked up (and the lookup counted) here,
     so the full path below does not look it up again. *)
  let remembered =
    Option.bind body (fun (m, digest) ->
        Option.map (fun key -> (key, cache_find t key)) (memo_find m digest))
  in
  match remembered with
  | Some (key, Some entry) ->
    (* A byte-identical repeat whose entry is cached: no parse, render or
       digest of its program. *)
    Mutex.protect t.lock (fun () -> t.memo_hits <- t.memo_hits + 1);
    let canonical =
      lazy
        (Lsra_text.Ir_text.to_string (Lsra_text.Ir_text.of_string req.source))
    in
    serve_hit ~key ~downgraded_to:None ~canonical req.algo entry
  | Some (_, None) | None ->
    let prog = Lsra_text.Ir_text.of_string req.source in
    (* Rendered once: the cache keys and the spot check both use it. *)
    let canonical = Lsra_text.Ir_text.to_string prog in
    let key_of algo =
      Cachekey.digest_canonical ?backend ~machine:t.cfg.machine ~algo ~passes
        canonical
    in
    let canonical = Lazy.from_val canonical in
    let requested_key = key_of req.algo in
    let requested_hit =
      match remembered with
      | Some _ -> None
      | None -> cache_find t requested_key
    in
    let resp =
      match requested_hit with
      | Some entry ->
        (* A warm hit costs no allocation at all, so the deadline is never
           at risk: serve the requested quality. *)
        serve_hit ~key:requested_key ~downgraded_to:None ~canonical req.algo
          entry
      | None -> (
        let n_instrs = n_instrs_of prog in
        let effective =
          match req.deadline with
          | None -> req.algo
          | Some budget ->
            degrade t ~req_id:req.req_id ~budget ~n_instrs req.algo
        in
        let downgraded_to =
          let name = Lsra.Allocator.short_name effective in
          if name <> Lsra.Allocator.short_name req.algo then Some name
          else None
        in
        (* The cheaper allocation may itself already be cached; the
           requested key was looked up above. *)
        let key, hit =
          match downgraded_to with
          | None -> (requested_key, None)
          | Some _ ->
            let key = key_of effective in
            (key, cache_find t key)
        in
        match hit with
        | Some entry -> serve_hit ~key ~downgraded_to ~canonical effective entry
        | None ->
          let stats, dt =
            compile t ~req_id:req.req_id ~passes effective prog
          in
          observe t effective n_instrs dt;
          let output = Lsra_text.Ir_text.to_string prog in
          cache_fill t key
            { Cache.output; stats; algo = Lsra.Allocator.short_name effective };
          if downgraded_to <> None then stats.Lsra.Stats.downgrades <- 1;
          respond ~key ~cached:false ~downgraded_to ~output ~stats)
    in
    (* Only a served request is remembered: an error is never memoized. *)
    Option.iter (fun (m, digest) -> memo_add m digest requested_key) body;
    resp
