(* Persistent content-addressed store: an append-only, length-prefixed
   journal per shard, compacted in place under a byte budget.

   Record format (one per completed allocation):

     E <key> <algo> <len>\n
     <len payload bytes>\n

   Appends are strictly suffix-extending, so the only corruption a
   crash can leave behind is a truncated tail; [load] accepts the
   longest valid record prefix and drops (then heals) the torn rest. *)

type counters = {
  entries : int;
  bytes : int;
  appended : int;
  loaded : int;
  torn : int;
  compactions : int;
}

(* When to push journal appends past the OS page cache. [Never] (the
   default) only flushes the runtime's channel buffer — a crash of the
   process loses nothing, a power loss may lose recent appends. [Batch]
   fsyncs at batch boundaries via {!sync}. *)
type sync_mode = Never | Batch

type shard = {
  path : string;
  (* key -> (algo, output): the live payload for each key (last append
     wins), mirrored on disk. *)
  table : (string, string * string) Hashtbl.t;
  (* Append order, oldest first, possibly with duplicate keys; replayed
     verbatim into the LRU on warm-load so recency survives restarts. *)
  mutable order : string Queue.t;
  mutable oc : out_channel option;
  mutable bytes : int;
  lock : Mutex.t;
}

type t = {
  shards : shard array;
  max_bytes : int;  (* per-shard journal budget before compaction *)
  sync_mode : sync_mode;
  mutable appended : int;
  mutable loaded : int;
  mutable torn : int;
  mutable compactions : int;
  lock : Mutex.t;  (* guards the whole-store counters only *)
}

(* Restart- and process-stable key hashing (no dependence on the OCaml
   runtime's polymorphic hash), so separate server processes agree on
   which shard owns a key and can compose behind a router. *)
let shard_of_key ~shards key =
  if shards <= 1 then 0
  else begin
    let h = ref 0 in
    String.iter
      (fun c -> h := ((!h * 131) + Char.code c) land 0x3fffffff)
      key;
    !h mod shards
  end

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let record key algo output =
  Printf.sprintf "E %s %s %d\n%s\n" key algo (String.length output) output

let record_size key algo output = String.length (record key algo output)

(* One-token fields keep the header line parseable. *)
let valid_token s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       s

(* Parse records from [data] starting at [pos]. Returns the records of
   the longest valid prefix (oldest first) and whether a torn tail was
   cut: any malformed header, short payload or missing terminator stops
   the scan — everything before it is intact by construction. *)
let parse_journal data =
  let n = String.length data in
  let records = ref [] in
  let rec go pos =
    if pos >= n then (pos, false)
    else
      match String.index_from_opt data pos '\n' with
      | None -> (pos, true)  (* torn header *)
      | Some eol -> (
        let header = String.sub data pos (eol - pos) in
        match String.split_on_char ' ' header with
        | [ "E"; key; algo; len ] when valid_token key && valid_token algo -> (
          match int_of_string_opt len with
          | Some l when l >= 0 ->
            let body_start = eol + 1 in
            if body_start + l < n && data.[body_start + l] = '\n' then begin
              records := (key, algo, String.sub data body_start l) :: !records;
              go (body_start + l + 1)
            end
            else (pos, true)  (* torn payload / missing terminator *)
          | Some _ | None -> (pos, true))
        | _ -> (pos, true))
  in
  let valid_end, torn = go 0 in
  (List.rev !records, valid_end, torn)

(* Directory fsync is advisory: some filesystems refuse it, and a
   refusal must not fail the write that already landed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Crash-safe replace: the tmp file's bytes are forced to disk before
   the rename, and the directory entry after it — otherwise a power
   loss right after a compaction or a meta write can surface an empty
   or vanished file that torn-tail recovery cannot help (the journal's
   append-only story covers truncated tails, not lost renames). *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* Rewrite the shard's journal from its in-memory state: one record per
   live key, oldest-touched first, dropping the oldest keys while the
   rewritten file would still exceed [max_bytes] (the newest key is
   always kept). Returns the dropped
   keys (already evicted from [table]). *)
let compact_shard max_bytes sh =
  let seen = Hashtbl.create 64 in
  let newest_first =
    Queue.fold (fun acc k -> k :: acc) [] sh.order
    |> List.filter (fun k ->
           Hashtbl.mem sh.table k
           && not
                (if Hashtbl.mem seen k then true
                 else begin
                   Hashtbl.add seen k ();
                   false
                 end))
  in
  (* Keep the newest keys up to the budget. *)
  let kept, _ =
    List.fold_left
      (fun (kept, bytes) k ->
        let algo, output = Hashtbl.find sh.table k in
        let sz = record_size k algo output in
        if bytes + sz <= max_bytes || kept = [] then (k :: kept, bytes + sz)
        else (kept, bytes))
      ([], 0) newest_first
  in
  (* [kept] is oldest-first now (fold reversed newest-first). *)
  let keep = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace keep k ()) kept;
  let dropped =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem keep k then acc else k :: acc)
      sh.table []
  in
  List.iter (fun k -> Hashtbl.remove sh.table k) dropped;
  let buf = Buffer.create 4096 in
  List.iter
    (fun k ->
      let algo, output = Hashtbl.find sh.table k in
      Buffer.add_string buf (record k algo output))
    kept;
  (match sh.oc with
  | Some oc ->
    close_out_noerr oc;
    sh.oc <- None
  | None -> ());
  write_file sh.path (Buffer.contents buf);
  sh.bytes <- Buffer.length buf;
  let order = Queue.create () in
  List.iter (fun k -> Queue.push k order) kept;
  sh.order <- order;
  dropped

let append_oc sh =
  match sh.oc with
  | Some oc -> oc
  | None ->
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 sh.path
    in
    sh.oc <- Some oc;
    oc

let meta_path dir = Filename.concat dir "meta"

let open_ ~dir ?(shards = 1) ?(max_bytes = 16 * 1024 * 1024) ?(sync = Never) ()
    =
  let shards = max 1 shards in
  mkdirs dir;
  (* The shard count is part of the on-disk layout: refuse to reopen a
     store with a different count rather than silently mis-shard. *)
  (match
     if Sys.file_exists (meta_path dir) then
       In_channel.with_open_text (meta_path dir) In_channel.input_all
       |> String.trim |> Option.some
     else None
   with
  | Some meta ->
    let expect = Printf.sprintf "shards=%d" shards in
    if meta <> expect then
      invalid_arg
        (Printf.sprintf "Store.open_: %s holds %S but this store wants %S"
           dir meta expect)
  | None -> write_file (meta_path dir) (Printf.sprintf "shards=%d\n" shards));
  let t =
    {
      max_bytes = max 4096 max_bytes;
      sync_mode = sync;
      shards =
        Array.init shards (fun i ->
            let sdir = Filename.concat dir (Printf.sprintf "shard-%02d" i) in
            mkdirs sdir;
            {
              path = Filename.concat sdir "journal";
              table = Hashtbl.create 64;
              order = Queue.create ();
              oc = None;
              bytes = 0;
              lock = Mutex.create ();
            });
      appended = 0;
      loaded = 0;
      torn = 0;
      compactions = 0;
      lock = Mutex.create ();
    }
  in
  (* Load every shard's valid prefix; heal a torn tail by rewriting the
     file to exactly the records we accepted. *)
  Array.iter
    (fun sh ->
      if Sys.file_exists sh.path then begin
        let data = In_channel.with_open_bin sh.path In_channel.input_all in
        let records, valid_end, torn = parse_journal data in
        List.iter
          (fun (key, algo, output) ->
            Hashtbl.replace sh.table key (algo, output);
            Queue.push key sh.order)
          records;
        sh.bytes <- valid_end;
        Mutex.protect t.lock (fun () ->
            t.loaded <- t.loaded + List.length records;
            if torn then t.torn <- t.torn + 1);
        if torn then write_file sh.path (String.sub data 0 valid_end)
      end)
    t.shards;
  t

let n_shards t = Array.length t.shards

(* Replay every shard's journal, oldest record first (duplicate keys
   kept: a re-append is a recency bump for the LRU being warm-loaded). *)
let load t =
  Array.to_list t.shards
  |> List.concat_map (fun (sh : shard) ->
         Mutex.protect sh.lock (fun () ->
             Queue.fold
               (fun acc key ->
                 match Hashtbl.find_opt sh.table key with
                 | Some (algo, output) -> (key, algo, output) :: acc
                 | None -> acc)
               [] sh.order
             |> List.rev))

let append t ~key ~algo ~output =
  if not (valid_token key && valid_token algo) then
    invalid_arg "Store.append: key and algo must be single tokens";
  let sh = t.shards.(shard_of_key ~shards:(n_shards t) key) in
  Mutex.protect sh.lock (fun () ->
      Hashtbl.replace sh.table key (algo, output);
      Queue.push key sh.order;
      let oc = append_oc sh in
      output_string oc (record key algo output);
      flush oc;
      sh.bytes <- sh.bytes + record_size key algo output;
      Mutex.protect t.lock (fun () -> t.appended <- t.appended + 1);
      if sh.bytes > t.max_bytes then begin
        (* Compact down to a low-water mark of half the budget: keeping
           up to the full budget would let the very next append cross it
           again, compacting on every append. *)
        ignore (compact_shard (t.max_bytes / 2) sh);
        Mutex.protect t.lock (fun () -> t.compactions <- t.compactions + 1)
      end)

(* Batch-boundary durability point: force every shard's open journal to
   disk. A no-op under [Never]; [append] itself never fsyncs, so the
   cost of durability is paid once per batch, not once per record. *)
let sync t =
  match t.sync_mode with
  | Never -> ()
  | Batch ->
    Array.iter
      (fun (sh : shard) ->
        Mutex.protect sh.lock (fun () ->
            match sh.oc with
            | Some oc ->
              flush oc;
              (try Unix.fsync (Unix.descr_of_out_channel oc)
               with Unix.Unix_error _ -> ())
            | None -> ()))
      t.shards

let counters t =
  let entries = ref 0 and bytes = ref 0 in
  Array.iter
    (fun (sh : shard) ->
      Mutex.protect sh.lock (fun () ->
          entries := !entries + Hashtbl.length sh.table;
          bytes := !bytes + sh.bytes))
    t.shards;
  Mutex.protect t.lock (fun () ->
      {
        entries = !entries;
        bytes = !bytes;
        appended = t.appended;
        loaded = t.loaded;
        torn = t.torn;
        compactions = t.compactions;
      })

let close t =
  Array.iter
    (fun (sh : shard) ->
      Mutex.protect sh.lock (fun () ->
          match sh.oc with
          | Some oc ->
            close_out_noerr oc;
            sh.oc <- None
          | None -> ()))
    t.shards
