(* Serving-path tests: wire framing edge cases over serve_fds, the
   persistent store's journal (round-trip, torn tail, compaction),
   restart warm-loading, and the socket multiplexer with concurrent
   clients. *)

open Lsra_target
module Service = Lsra_service.Service
module Mux = Lsra_service.Mux
module Protocol = Lsra_service.Protocol
module Store = Lsra_service.Store

let machine = Machine.small ~int_regs:4 ~float_regs:4 ()

let gen_program ?(seed = 11) () =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8;
      n_stmts = 14;
      n_funcs = 1;
    }
  in
  Lsra_workloads.Gen.program ~params machine

let source ?seed () = Lsra_text.Ir_text.to_string (gen_program ?seed ())

(* The payload a request for [src] must serve: the direct pipeline. *)
let direct_output src =
  let prog = Lsra_text.Ir_text.of_string src in
  ignore
    (Lsra.Allocator.pipeline ~passes:Lsra.Passes.default
       Lsra.Allocator.default_second_chance machine prog);
  Lsra_text.Ir_text.to_string prog

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let make_service ?(spot_check = 0) ?store_dir ?(shards = 1) () =
  Service.create
    {
      (Service.default_config machine) with
      Service.spot_check;
      store_dir;
      shards;
    }

(* Serve the given input bytes as one connection over file descriptors,
   as [lsra_tool serve] serves stdin/stdout; returns (severity, raw
   output bytes). *)
let serve_io ?capacity ?jobs ?spot_check ?store_dir ?shards input =
  let svc = make_service ?spot_check ?store_dir ?shards () in
  let in_path = Filename.temp_file "lsra-serve" ".in" in
  let out_path = Filename.temp_file "lsra-serve" ".out" in
  Out_channel.with_open_bin in_path (fun oc ->
      Out_channel.output_string oc input);
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let output = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let sev = Mux.serve_fds ?capacity ?jobs svc ~input ~output in
  Unix.close input;
  Unix.close output;
  let out = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove in_path;
  Sys.remove out_path;
  (sev, out)

(* Split a raw response stream into (reply, body) frames, consuming
   exactly len= bytes of payload after each OK header. *)
let parse_replies s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      match String.index_from_opt s pos '\n' with
      | None -> Alcotest.failf "unterminated reply line %S" (String.sub s pos (n - pos))
      | Some eol -> (
        let line = String.sub s pos (eol - pos) in
        if line = "" then go (eol + 1) acc
        else
          match Protocol.parse_reply line with
          | Error m -> Alcotest.failf "bad reply line %S: %s" line m
          | Ok (Protocol.R_ok { body_len = Some len; _ } as r) ->
            if eol + 1 + len > n then
              Alcotest.failf "reply %S promises %d bytes, stream has %d"
                line len (n - eol - 1);
            let body = String.sub s (eol + 1) len in
            go (eol + 1 + len) ((r, Some body) :: acc)
          | Ok (Protocol.R_ok { body_len = None; _ }) ->
            Alcotest.failf "OK reply without len=: %S" line
          | Ok r -> go (eol + 1) ((r, None) :: acc))
  in
  go 0 []

let req id body = Protocol.render_frame ("REQ " ^ id) (Some body)

let ids replies =
  List.map
    (fun (r, _) ->
      match r with
      | Protocol.R_ok { id; _ } -> "OK:" ^ id
      | Protocol.R_err { id; code; _ } -> Printf.sprintf "ERR:%s:%d" id code
      | Protocol.R_stats { id; _ } -> "STATS:" ^ id)
    replies

(* ------------------------------------------------------------------ *)
(* Hostile IR text.                                                    *)

let fixture name =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) ("fixtures/" ^ name))
    In_channel.input_all

(* Each hostile program between two valid requests: one ERR with exit
   code 1 and a parse error, and the server goes on to answer the next
   request. *)
let test_hostile_ir_between_valid () =
  let src = source () in
  List.iter
    (fun name ->
      let input = req "a" src ^ req "bad" (fixture name) ^ req "b" src ^ "QUIT\n" in
      let sev, out = serve_io input in
      Alcotest.(check int) (name ^ ": bad input is severity 0") 0 sev;
      match parse_replies out with
      | [ (Protocol.R_ok { id = "a"; _ }, Some _);
          (Protocol.R_err { id = "bad"; code = 1; msg }, None);
          (Protocol.R_ok { id = "b"; _ }, Some body) ] ->
        Alcotest.(check bool) (name ^ ": " ^ msg) true
          (String.starts_with ~prefix:"parse error at line " msg);
        Alcotest.(check string) (name ^ ": next request served") (direct_output src) body
      | rs -> Alcotest.failf "%s: unexpected replies: %s" name (String.concat " " (ids rs)))
    [
      "hostile_register.lsra";
      "hostile_slot_name.lsra";
      "hostile_slot_bound.lsra";
      "hostile_temp_id.lsra";
      "hostile_shared_id.lsra";
    ]

(* A cache hit is spot-checked by re-reading the canonical text, which
   spells an infinite constant `infinity`. *)
let test_nonfinite_spot_check () =
  let src = fixture "nonfinite.lsra" in
  let input = req "cold" src ^ req "hit" src ^ "QUIT\n" in
  let sev, out = serve_io ~spot_check:1 input in
  Alcotest.(check int) "clean" 0 sev;
  match parse_replies out with
  | [ (Protocol.R_ok { id = "cold"; hit = false; _ }, Some a);
      (Protocol.R_ok { id = "hit"; hit = true; _ }, Some b) ] ->
    Alcotest.(check string) "same payload" a b
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

(* ------------------------------------------------------------------ *)
(* Framing edge cases.                                                 *)

(* A len=-framed body may contain any line: the full body reaches the
   parser (one clean ERR for this invalid program) and the next request
   is served normally. *)
let test_len_body_contains_end () =
  let src = source () in
  let evil = "this is not ir\nEND\nmore garbage\n" in
  let input = req "evil" evil ^ req "good" src ^ "QUIT\n" in
  let sev, out = serve_io input in
  Alcotest.(check int) "bad input is severity 0" 0 sev;
  match parse_replies out with
  | [ (Protocol.R_err { id = "evil"; code = 1; _ }, None);
      (Protocol.R_ok { id = "good"; hit = false; _ }, Some body) ] ->
    Alcotest.(check string) "stream stayed in sync" (direct_output src) body
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

let test_len_zero_body () =
  let src = source () in
  let input = req "empty" "" ^ req "good" src ^ "QUIT\n" in
  let _, out = serve_io input in
  (* Whatever an empty program means to the frontend, it must consume
     exactly one reply slot and leave the stream synchronised. *)
  match parse_replies out with
  | [ (Protocol.R_ok { id = "empty"; _ }, _); (Protocol.R_ok { id = "good"; _ }, Some body) ]
  | [ (Protocol.R_err { id = "empty"; _ }, _); (Protocol.R_ok { id = "good"; _ }, Some body) ]
    ->
    Alcotest.(check string) "second request intact" (direct_output src) body
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

let test_len_truncated_by_eof () =
  let input = "REQ cut len=100\nonly a few bytes" in
  let _, out = serve_io input in
  match parse_replies out with
  | [ (Protocol.R_err { id = "cut"; code = 1; _ }, None) ] -> ()
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

(* Serve [input] and check the replies in order, by kind and id (an ERR
   with its code); bad input never raises the severity. Returns the
   replies' bodies and ERR messages, in order. *)
let check_replies input expected =
  let sev, out = serve_io input in
  Alcotest.(check int) "bad input is severity 0" 0 sev;
  let rs = parse_replies out in
  Alcotest.(check (list string)) "replies" expected (ids rs);
  List.map
    (function
      | Protocol.R_err { msg; _ }, _ -> msg
      | _, body -> Option.value body ~default:"")
    rs

(* A client-chosen len= over the cap is one ERR, not an allocation:
   the body cannot be delimited, so nothing after it is read. *)
let test_len_over_cap () =
  let input = "REQ a len=100000000000\nabc\n" ^ req "b" (source ()) in
  match check_replies input [ "ERR:a:1" ] with
  | [ msg ] ->
    Alcotest.(check bool) ("names the cap: " ^ msg) true
      (String.ends_with ~suffix:"frame cap" msg)
  | _ -> assert false

(* A rejected REQ's body is skipped, never read as frames: a QUIT line
   in it must not shut the server down. *)
let test_rejected_body_skipped () =
  let src = source () in
  let input =
    Protocol.render_frame "REQ x algo=nope" (Some "QUIT\n") ^ req "good" src
    ^ "QUIT\n"
  in
  Alcotest.(check string) "next request served" (direct_output src)
    (List.nth (check_replies input [ "ERR:x:1"; "OK:good" ]) 1)

let test_req_without_len () =
  let src = source () in
  let input = "REQ nolen\n" ^ src ^ req "b" src ^ "QUIT\n" in
  ignore (check_replies input [ "ERR:nolen:1" ])

(* A header of exactly max_header bytes is read; one byte more is one
   ERR, and the rest of the input (here a megabyte with no newline) is
   not. *)
let test_header_cap () =
  let src = source () in
  let hdr = Printf.sprintf "REQ fits len=%d" (String.length src) in
  let input =
    hdr ^ String.make (Protocol.max_header - String.length hdr) ' ' ^ "\n" ^ src
    ^ String.make (Protocol.max_header + 1) 'x'
    ^ "\n" ^ req "b" src ^ String.make (1 lsl 20) 'y'
  in
  Alcotest.(check string) "longest header served" (direct_output src)
    (List.hd (check_replies input [ "OK:fits"; "ERR:-:1" ]))

(* An unterminated last line is not a frame. *)
let test_unterminated_last_line () =
  ignore (check_replies (req "a" (source ()) ^ "STATS s") [ "OK:a" ])

(* A reader that goes away is EPIPE on the write, not SIGPIPE: the
   loop ends cleanly. *)
let test_output_reader_closed () =
  let src = source () in
  let in_path = Filename.temp_file "lsra-serve" ".in" in
  Out_channel.with_open_bin in_path (fun oc ->
      Out_channel.output_string oc (req "a" src ^ req "b" src ^ "QUIT\n"));
  let input = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let r, w = Unix.pipe () in
  Unix.close r;
  let sev = Mux.serve_fds (make_service ()) ~input ~output:w in
  Unix.close input;
  Unix.close w;
  Sys.remove in_path;
  Alcotest.(check int) "severity 0" 0 sev

let test_quit_mid_batch () =
  let a = source ~seed:21 () and b = source ~seed:22 () in
  (* No FLUSH anywhere: QUIT itself must flush the pending batch, in
     submission order. *)
  let input = req "a" a ^ req "b" b ^ "QUIT\n" in
  let sev, out = serve_io input in
  Alcotest.(check int) "clean" 0 sev;
  match parse_replies out with
  | [ (Protocol.R_ok { id = "a"; _ }, Some ba); (Protocol.R_ok { id = "b"; _ }, Some bb) ]
    ->
    Alcotest.(check string) "a served" (direct_output a) ba;
    Alcotest.(check string) "b served" (direct_output b) bb
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

let test_stats_mid_batch () =
  let a = source ~seed:23 () and b = source ~seed:24 () in
  let input = req "a" a ^ "STATS s\n" ^ req "b" b ^ "QUIT\n" in
  let _, out = serve_io input in
  match parse_replies out with
  | [ (Protocol.R_ok { id = "a"; _ }, Some _);
      (Protocol.R_stats { id = "s"; fields }, None);
      (Protocol.R_ok { id = "b"; _ }, Some _) ] ->
    (* STATS flushed the in-flight batch first, so it reports request a
       as already served. *)
    Alcotest.(check (option string)) "requests counted" (Some "1")
      (List.assoc_opt "requests" fields);
    Alcotest.(check bool) "shards reported" true
      (List.mem_assoc "shards" fields);
    Alcotest.(check bool) "warm-loaded reported" true
      (List.mem_assoc "warm-loaded" fields)
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat " " (ids rs))

(* Program [i] sums [i + 3] temps, all live at once: 200-500 bytes of
   text, and the larger ones spill on the 4-register machine. *)
let sum_source i =
  let n = i + 3 in
  let lines f = String.concat "" (List.init n f) in
  "program main=main heap=16\n\nfunc main {\n"
  ^ lines (Printf.sprintf "  temp t.%d int\n")
  ^ "  block entry:\n"
  ^ lines (fun k -> Printf.sprintf "    t.%d := %d\n" k (k + i))
  ^ lines (fun k ->
        if k = 0 then "" else Printf.sprintf "    t.0 := add t.0, t.%d\n" k)
  ^ "    $r0 := t.0\n    ret\n}\n"

(* The batch settings change only when and where requests run: six
   requests served as one batch on four domains, or one batch per
   request, give the ids, order and bodies of the default single-domain
   batch. The six frames are small enough to arrive in one read, so
   the default and the four-domain runs serve them as one batch. *)
let test_batch_settings_same_replies () =
  let input =
    String.concat ""
      (List.init 6 (fun i -> req (Printf.sprintf "r%d" i) (sum_source i)))
    ^ "QUIT\n"
  in
  let replies ?capacity ?jobs () =
    let sev, out = serve_io ?capacity ?jobs input in
    Alcotest.(check int) "clean" 0 sev;
    let rs = parse_replies out in
    (ids rs, List.map snd rs)
  in
  let ids, bodies = replies () in
  Alcotest.(check (list string)) "all six served in order"
    (List.init 6 (Printf.sprintf "OK:r%d")) ids;
  List.iter
    (fun (name, r) ->
      let ids', bodies' = r in
      Alcotest.(check (list string)) (name ^ ": ids and order") ids ids';
      Alcotest.(check (list (option string))) (name ^ ": bodies") bodies bodies')
    [
      ("jobs 4", replies ~jobs:4 ());
      ("capacity 1", replies ~capacity:1 ());
    ]

(* A request that raises answers ERR in its own slot of a four-domain
   batch: the requests before and after it in the same batch are still
   served, in submission order, with the direct pipeline's bytes. *)
let test_batch_isolates_errors () =
  let good = List.init 4 sum_source in
  let frames =
    List.mapi (fun i src -> req (Printf.sprintf "r%d" i) src) good
  in
  let input =
    List.nth frames 0 ^ List.nth frames 1
    ^ req "bad" "this is not ir\n"
    ^ List.nth frames 2 ^ List.nth frames 3 ^ "QUIT\n"
  in
  let sev, out = serve_io ~jobs:4 input in
  Alcotest.(check int) "bad input is severity 0" 0 sev;
  let rs = parse_replies out in
  Alcotest.(check (list string)) "error stays in its slot"
    [ "OK:r0"; "OK:r1"; "ERR:bad:1"; "OK:r2"; "OK:r3" ]
    (ids rs);
  Alcotest.(check (list (option string))) "good slots served"
    (List.map (fun src -> Some (direct_output src)) good)
    (List.filter_map
       (fun (r, body) ->
         match r with Protocol.R_ok _ -> Some body | _ -> None)
       rs)

(* ------------------------------------------------------------------ *)
(* The persistent store.                                               *)

let test_store_round_trip () =
  let dir = temp_dir "lsra-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let st = Store.open_ ~dir ~shards:2 () in
  Store.append st ~key:"k1" ~algo:"binpack" ~output:"out-one\n";
  Store.append st ~key:"k2" ~algo:"poletto" ~output:"out-two\n";
  Store.append st ~key:"k1" ~algo:"binpack" ~output:"out-one-v2\n";
  Store.close st;
  (* Reopening with a different shard count must refuse: the count is
     part of the on-disk layout. *)
  (match Store.open_ ~dir ~shards:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shard-count mismatch accepted");
  let st2 = Store.open_ ~dir ~shards:2 () in
  let loaded = Store.load st2 in
  let live = Hashtbl.create 4 in
  List.iter (fun (k, a, o) -> Hashtbl.replace live k (a, o)) loaded;
  Alcotest.(check int) "two live keys" 2 (Hashtbl.length live);
  Alcotest.(check (option (pair string string))) "k1 latest payload wins"
    (Some ("binpack", "out-one-v2\n"))
    (Hashtbl.find_opt live "k1");
  Alcotest.(check (option (pair string string))) "k2 intact"
    (Some ("poletto", "out-two\n"))
    (Hashtbl.find_opt live "k2");
  let c = Store.counters st2 in
  Alcotest.(check int) "records replayed" 3 c.Store.loaded;
  Alcotest.(check int) "no torn shard" 0 c.Store.torn;
  Store.close st2

let test_store_torn_tail () =
  let dir = temp_dir "lsra-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let st = Store.open_ ~dir () in
  Store.append st ~key:"a" ~algo:"binpack" ~output:"payload-a\n";
  Store.append st ~key:"b" ~algo:"binpack" ~output:"payload-b\n";
  Store.append st ~key:"c" ~algo:"binpack" ~output:"payload-c\n";
  Store.close st;
  (* Crash-cut: chop bytes out of the last record's payload. *)
  let journal = Filename.concat (Filename.concat dir "shard-00") "journal" in
  let data = In_channel.with_open_bin journal In_channel.input_all in
  Out_channel.with_open_bin journal (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data - 5)));
  let st2 = Store.open_ ~dir () in
  let keys = List.map (fun (k, _, _) -> k) (Store.load st2) in
  Alcotest.(check (list string)) "torn tail skipped, prefix kept"
    [ "a"; "b" ] keys;
  Alcotest.(check int) "torn shard counted" 1 (Store.counters st2).Store.torn;
  Store.close st2;
  (* The torn tail was healed on load: a third open is clean. *)
  let st3 = Store.open_ ~dir () in
  Alcotest.(check int) "healed" 0 (Store.counters st3).Store.torn;
  Alcotest.(check int) "still two records" 2 (Store.counters st3).Store.loaded;
  Store.close st3

let test_store_compaction () =
  let dir = temp_dir "lsra-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* max_bytes floors at 4096; ~420-byte records overflow it quickly. *)
  let st = Store.open_ ~dir ~max_bytes:1 () in
  let payload i = String.make 400 (Char.chr (Char.code 'a' + (i mod 26))) in
  for i = 0 to 19 do
    Store.append st
      ~key:(Printf.sprintf "k%02d" i)
      ~algo:"binpack" ~output:(payload i)
  done;
  let c = Store.counters st in
  Alcotest.(check bool) "compaction ran" true (c.Store.compactions >= 1);
  Alcotest.(check bool) "journal within budget" true (c.Store.bytes <= 4096);
  let keys = List.map (fun (k, _, _) -> k) (Store.load st) in
  Alcotest.(check bool) "newest key survives" true (List.mem "k19" keys);
  Alcotest.(check bool) "oldest key dropped" true (not (List.mem "k00" keys));
  Store.close st;
  (* What survived compaction round-trips. *)
  let st2 = Store.open_ ~dir () in
  let keys2 = List.map (fun (k, _, _) -> k) (Store.load st2) in
  Alcotest.(check (list string)) "compacted journal reloads" keys keys2;
  Store.close st2

let test_store_compaction_low_water () =
  let dir = temp_dir "lsra-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let budget = 4096 in
  let st = Store.open_ ~dir ~max_bytes:budget () in
  let key i = Printf.sprintf "k%03d" i in
  let payload = String.make 400 'x' in
  Store.append st ~key:(key 0) ~algo:"binpack" ~output:payload;
  let size = (Store.counters st).Store.bytes in
  let n = 100 in
  for i = 1 to n - 1 do
    Store.append st ~key:(key i) ~algo:"binpack" ~output:payload
  done;
  let c = Store.counters st in
  let bound = ((n * size) + (budget / 2) - 1) / (budget / 2) in
  if c.Store.compactions < 1 || c.Store.compactions > bound then
    Alcotest.failf "%d appends of %d bytes: %d compactions, expected 1..%d" n
      size c.Store.compactions bound;
  Store.close st;
  (* The reopened journal holds the newest keys, oldest first. *)
  let st2 = Store.open_ ~dir ~max_bytes:budget () in
  let keys = List.map (fun (k, _, _) -> k) (Store.load st2) in
  let m = List.length keys in
  Alcotest.(check bool) "some keys survive" true (m >= 1);
  Alcotest.(check (list string)) "newest keys survive"
    (List.init m (fun j -> key (n - m + j)))
    keys;
  Store.close st2

let test_store_sync_modes () =
  let dir = temp_dir "lsra-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Batch mode: sync fsyncs the open journals; appends before and after
     a sync must both round-trip through a reopen. *)
  let st = Store.open_ ~dir ~shards:2 ~sync:Store.Batch () in
  Store.append st ~key:"k1" ~algo:"binpack" ~output:"one\n";
  Store.sync st;
  Store.append st ~key:"k2" ~algo:"binpack" ~output:"two\n";
  Store.sync st;
  Store.close st;
  let st2 = Store.open_ ~dir ~shards:2 () in
  Alcotest.(check int) "both records durable" 2
    (Store.counters st2).Store.loaded;
  (* Never mode (the default): sync is a no-op whether or not a journal
     is open, and appends still round-trip via the channel flush. *)
  Store.sync st2;
  Store.append st2 ~key:"k3" ~algo:"binpack" ~output:"three\n";
  Store.sync st2;
  Store.close st2;
  let st3 = Store.open_ ~dir ~shards:2 () in
  Alcotest.(check int) "append under Never survives" 3
    (Store.counters st3).Store.loaded;
  Store.close st3

let test_service_restart_warm () =
  let dir = temp_dir "lsra-warm" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg =
    {
      (Service.default_config machine) with
      Service.store_dir = Some (Filename.concat dir "store");
      shards = 2;
      spot_check = 1;  (* every hit re-allocated and byte-compared *)
    }
  in
  let sources = List.map (fun s -> source ~seed:s ()) [ 31; 32; 33 ] in
  let svc1 = Service.create cfg in
  let outs1 =
    List.mapi
      (fun i s ->
        (Service.handle svc1 (Service.request ~id:(Printf.sprintf "c%d" i) s))
          .Service.output)
      sources
  in
  (match Service.store svc1 with
  | Some st -> Store.close st
  | None -> Alcotest.fail "store not opened");
  (* A fresh service on the same directory — the "restarted process" —
     must answer every request from the journal-loaded cache, and the
     spot-check (which re-allocates from scratch) vets the payloads. *)
  let svc2 = Service.create cfg in
  Alcotest.(check int) "journal records warm-loaded" 3
    (Service.counters svc2).Service.warm_loaded;
  List.iteri
    (fun i (s, expected) ->
      let r =
        Service.handle svc2 (Service.request ~id:(Printf.sprintf "w%d" i) s)
      in
      Alcotest.(check bool) "served from warm cache" true r.Service.cached;
      Alcotest.(check string) "payload survived the restart" expected
        r.Service.output)
    (List.combine sources outs1);
  Alcotest.(check int) "all hits spot-checked" 3
    (Service.counters svc2).Service.spot_checks

(* ------------------------------------------------------------------ *)
(* The socket multiplexer.                                             *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n < 250 ->
      ignore (Unix.select [] [] [] 0.02);
      go (n + 1)
  in
  go 0;
  fd

let read_reply ic =
  let rec go () =
    match In_channel.input_line ic with
    | None -> Alcotest.fail "server closed the connection"
    | Some "" -> go ()
    | Some line -> (
      match Protocol.parse_reply line with
      | Error m -> Alcotest.failf "bad reply %S: %s" line m
      | Ok (Protocol.R_ok { body_len = Some len; _ } as r) ->
        (r, Some (really_input_string ic len))
      | Ok (Protocol.R_ok { body_len = None; _ }) ->
        Alcotest.failf "OK reply without len=: %S" line
      | Ok r -> (r, None))
  in
  go ()

let test_mux_concurrent_clients () =
  let dir = temp_dir "lsra-mux" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = Service.create (Service.default_config machine) in
  let path = Filename.concat dir "serve.sock" in
  let srv =
    Domain.spawn (fun () -> Mux.serve_socket ~max_clients:8 ~jobs:2 svc path)
  in
  let src = source ~seed:41 () in
  let expected = direct_output src in
  (* A client that dies mid-frame (header promised 1000 bytes, sent a
     handful, hung up) must poison only its own connection. *)
  let ragged = connect path in
  let roc = Unix.out_channel_of_descr ragged in
  output_string roc "REQ ragged len=1000\nonly a little";
  flush roc;
  Unix.close ragged;
  (* Three well-behaved concurrent clients, two requests each; all six
     answers must be byte-identical and routed to the connection that
     asked. *)
  let client i =
    let fd = connect path in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let replies =
      List.map
        (fun round ->
          let id = Printf.sprintf "c%d.%d" i round in
          output_string oc (req id src);
          flush oc;
          (id, read_reply ic))
        [ 1; 2 ]
    in
    Unix.close fd;
    replies
  in
  let doms = List.init 3 (fun i -> Domain.spawn (fun () -> client i)) in
  (* Checked on this domain once the clients are done: Alcotest reports
     through a Format queue that concurrent domains corrupt. *)
  List.iter
    (fun (id, reply) ->
      match reply with
      | Protocol.R_ok { id = rid; _ }, Some body ->
        Alcotest.(check string) "routed to the requesting connection" id rid;
        Alcotest.(check string) "payload bit-identical" expected body
      | _ -> Alcotest.failf "request %s: unexpected reply" id)
    (List.concat_map Domain.join doms);
  (* STATS over a fresh connection, then QUIT to shut the server down. *)
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "STATS s\nQUIT\n";
  flush oc;
  (match read_reply ic with
  | Protocol.R_stats { id = "s"; fields }, None ->
    Alcotest.(check (option string)) "six requests served" (Some "6")
      (List.assoc_opt "requests" fields);
    (* Identical requests that land in the same first batch each miss
       (they run concurrently), so only the second round is guaranteed
       warm: 3 <= hits <= 5. *)
    let hits =
      match List.assoc_opt "hits" fields with
      | Some v -> int_of_string v
      | None -> Alcotest.fail "no hits field"
    in
    Alcotest.(check bool)
      (Printf.sprintf "second round all warm (hits=%d)" hits)
      true
      (hits >= 3 && hits <= 5)
  | _ -> Alcotest.fail "expected a STATS reply");
  Unix.close fd;
  let sev = Domain.join srv in
  Alcotest.(check int) "server severity clean" 0 sev;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "framing: len= body may contain END" `Quick
      test_len_body_contains_end;
    Alcotest.test_case "framing: len=0 empty body stays in sync" `Quick
      test_len_zero_body;
    Alcotest.test_case "framing: len= body cut by EOF is ERR" `Quick
      test_len_truncated_by_eof;
    Alcotest.test_case "framing: over-cap len= is one ERR" `Quick
      test_len_over_cap;
    Alcotest.test_case "framing: rejected REQ body is skipped" `Quick
      test_rejected_body_skipped;
    Alcotest.test_case "framing: REQ without len= is one ERR" `Quick
      test_req_without_len;
    Alcotest.test_case "framing: header line capped at max_header" `Quick
      test_header_cap;
    Alcotest.test_case "framing: unterminated last line is no frame" `Quick
      test_unterminated_last_line;
    Alcotest.test_case "stdio: closed output reader ends cleanly" `Quick
      test_output_reader_closed;
    Alcotest.test_case "hostile IR text: ERR 1, then the next request" `Quick
      test_hostile_ir_between_valid;
    Alcotest.test_case "non-finite constants survive a spot check" `Quick
      test_nonfinite_spot_check;
    Alcotest.test_case "frames: QUIT flushes the pending batch" `Quick
      test_quit_mid_batch;
    Alcotest.test_case "frames: STATS mid-batch flushes first" `Quick
      test_stats_mid_batch;
    Alcotest.test_case "batch: jobs and capacity keep the replies" `Quick
      test_batch_settings_same_replies;
    Alcotest.test_case "batch: errors stay in their slot" `Quick
      test_batch_isolates_errors;
    Alcotest.test_case "store: journal round-trip, shard guard" `Quick
      test_store_round_trip;
    Alcotest.test_case "store: torn tail skipped and healed" `Quick
      test_store_torn_tail;
    Alcotest.test_case "store: compaction under byte budget" `Quick
      test_store_compaction;
    Alcotest.test_case "store: compaction down to half the budget" `Quick
      test_store_compaction_low_water;
    Alcotest.test_case "store: sync modes (batch fsync, never no-op)" `Quick
      test_store_sync_modes;
    Alcotest.test_case "service: restart warm-loads from journal" `Quick
      test_service_restart_warm;
    Alcotest.test_case "mux: concurrent clients, ragged disconnect" `Quick
      test_mux_concurrent_clients;
  ]
