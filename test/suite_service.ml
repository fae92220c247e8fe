open Lsra_ir
open Lsra_target
module Cachekey = Lsra_service.Cachekey
module Cache = Lsra_service.Cache
module Service = Lsra_service.Service
module Scheduler = Lsra_service.Scheduler
module Protocol = Lsra_service.Protocol

let machine = Machine.small ~int_regs:4 ~float_regs:4 ()

let gen_program ?(seed = 11) ?(n_funcs = 2) () =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8;
      n_stmts = 14;
      n_funcs;
    }
  in
  Lsra_workloads.Gen.program ~params machine

let source ?seed ?n_funcs () =
  Lsra_text.Ir_text.to_string (gen_program ?seed ?n_funcs ())

let bp = Lsra.Allocator.default_second_chance

(* ------------------------------------------------------------------ *)
(* Cache keys: stability under textual round-trips, sensitivity to
   everything that shapes an allocation.                               *)

let test_digest_round_trip () =
  let prog = gen_program () in
  let passes = Lsra.Passes.default in
  let d0 = Cachekey.digest ~machine ~algo:bp ~passes prog in
  let text = Lsra_text.Ir_text.to_string prog in
  let d1 = Cachekey.digest_source ~machine ~algo:bp ~passes text in
  Alcotest.(check string) "print -> parse -> same digest" d0 d1;
  (* Round-trip the text itself once more: parsing regenerates every
     instruction uid, and none of that may leak into the address. *)
  let reparsed = Lsra_text.Ir_text.of_string text in
  let d2 =
    Cachekey.digest_source ~machine ~algo:bp ~passes
      (Lsra_text.Ir_text.to_string reparsed)
  in
  Alcotest.(check string) "second round-trip -> same digest" d0 d2

let test_digest_sensitivity () =
  let prog = gen_program () in
  let passes = Lsra.Passes.default in
  let base = Cachekey.digest ~machine ~algo:bp ~passes prog in
  let m3 = Machine.small ~int_regs:3 ~float_regs:4 () in
  let check_differs what d =
    if String.equal base d then
      Alcotest.failf "digest ignores %s (both %s)" what d
  in
  check_differs "machine register count"
    (Cachekey.digest ~machine:m3 ~algo:bp ~passes prog);
  check_differs "algorithm"
    (Cachekey.digest ~machine ~algo:Lsra.Allocator.Poletto ~passes prog);
  check_differs "allocator options"
    (Cachekey.digest ~machine
       ~algo:
         (Lsra.Allocator.Second_chance
            { Lsra.Binpack.default_options with early_second_chance = false })
       ~passes prog);
  check_differs "pass list" (Cachekey.digest ~machine ~algo:bp ~passes:[] prog);
  check_differs "program"
    (Cachekey.digest ~machine ~algo:bp ~passes (gen_program ~seed:12 ()))

(* ------------------------------------------------------------------ *)
(* The LRU cache under a tiny budget: eviction order and counters.     *)

let entry s = { Cache.output = s; stats = Lsra.Stats.create (); algo = "binpack" }

let test_lru_entry_budget () =
  let c = Cache.create ~max_entries:2 ~max_bytes:max_int () in
  Cache.add c "a" (entry "A");
  Cache.add c "b" (entry "B");
  Alcotest.(check (list string)) "MRU first" [ "b"; "a" ] (Cache.lru_order c);
  (* A hit refreshes recency... *)
  (match Cache.find c "a" with
  | Some e -> Alcotest.(check string) "payload" "A" e.Cache.output
  | None -> Alcotest.fail "a should hit");
  Alcotest.(check (list string)) "hit bumps a" [ "a"; "b" ] (Cache.lru_order c);
  (* ...so the third insert evicts [b], the least recently used. *)
  Cache.add c "c" (entry "C");
  Alcotest.(check (list string)) "b evicted" [ "c"; "a" ] (Cache.lru_order c);
  Alcotest.(check bool) "b misses" true (Cache.find c "b" = None);
  let k = Cache.counters c in
  Alcotest.(check int) "hits" 1 k.Cache.hits;
  Alcotest.(check int) "misses" 1 k.Cache.misses;
  Alcotest.(check int) "evictions" 1 k.Cache.evictions;
  Alcotest.(check int) "entries" 2 k.Cache.entries

let test_lru_byte_budget () =
  (* Each entry costs key + output + constant overhead; a budget that
     fits two 100-byte outputs but not three forces byte-driven
     eviction even though the entry budget is generous. *)
  let payload = String.make 100 'x' in
  let cost = String.length "k1" + String.length payload + 64 in
  let c = Cache.create ~max_entries:1000 ~max_bytes:(2 * cost) () in
  Cache.add c "k1" (entry payload);
  Cache.add c "k2" (entry payload);
  Alcotest.(check int) "two fit" 2 (Cache.counters c).Cache.entries;
  Cache.add c "k3" (entry payload);
  let k = Cache.counters c in
  Alcotest.(check int) "still two" 2 k.Cache.entries;
  Alcotest.(check int) "one evicted" 1 k.Cache.evictions;
  Alcotest.(check (list string)) "k1 was the victim" [ "k3"; "k2" ]
    (Cache.lru_order c);
  Alcotest.(check bool) "bytes within budget" true (k.Cache.bytes <= 2 * cost);
  (* An entry bigger than the whole budget is refused outright rather
     than flushing everything else. *)
  Cache.add c "huge" (entry (String.make 1000 'y'));
  Alcotest.(check bool) "oversized entry not cached" true
    (Cache.find c "huge" = None)

let test_refresh_in_place () =
  let c = Cache.create ~max_entries:8 () in
  Cache.add c "a" (entry "A");
  Cache.add c "b" (entry "B");
  Cache.add c "a" (entry "A'");
  Alcotest.(check (list string)) "re-add bumps recency" [ "a"; "b" ]
    (Cache.lru_order c);
  Alcotest.(check int) "no duplicate entry" 2 (Cache.counters c).Cache.entries;
  match Cache.find c "a" with
  | Some e -> Alcotest.(check string) "payload refreshed" "A'" e.Cache.output
  | None -> Alcotest.fail "a should hit"

(* ------------------------------------------------------------------ *)
(* The service: cold path identical to the direct pipeline, warm path
   served from cache, spot-checks green.                               *)

let make_service ?(spot_check = 0) ?deadline_trace () =
  let cfg =
    {
      (Service.default_config machine) with
      Service.spot_check;
      trace = deadline_trace;
    }
  in
  Service.create cfg

let test_cold_matches_pipeline () =
  let src = source () in
  let svc = make_service () in
  let resp = Service.handle svc (Service.request ~id:"r0" src) in
  Alcotest.(check bool) "cold" false resp.Service.cached;
  let direct = Lsra_text.Ir_text.of_string src in
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:Lsra.Passes.default bp machine
       direct);
  Alcotest.(check string) "bit-identical to direct pipeline"
    (Lsra_text.Ir_text.to_string direct)
    resp.Service.output

let test_warm_hit_and_spot_check () =
  let src = source () in
  (* spot_check = 1: every hit is re-allocated and byte-compared. *)
  let svc = make_service ~spot_check:1 () in
  let cold = Service.handle svc (Service.request ~id:"c" src) in
  let warm = Service.handle svc (Service.request ~id:"w" src) in
  Alcotest.(check bool) "second request hits" true warm.Service.cached;
  Alcotest.(check string) "warm output identical" cold.Service.output
    warm.Service.output;
  Alcotest.(check string) "same content address" cold.Service.key
    warm.Service.key;
  let k = Service.counters svc in
  Alcotest.(check int) "requests" 2 k.Service.requests;
  Alcotest.(check int) "one hit" 1 k.Service.cache.Cache.hits;
  Alcotest.(check int) "one miss" 1 k.Service.cache.Cache.misses;
  Alcotest.(check int) "spot-check ran" 1 k.Service.spot_checks;
  (* A textually different rendering of the same program still hits:
     the address is of the canonical form. *)
  let roundtripped =
    Lsra_text.Ir_text.to_string (Lsra_text.Ir_text.of_string src)
  in
  let warm2 = Service.handle svc (Service.request ~id:"w2" roundtripped) in
  Alcotest.(check bool) "round-tripped source hits" true warm2.Service.cached

(* ------------------------------------------------------------------ *)
(* Deadline-driven degradation.                                        *)

let test_deadline_downgrades () =
  let src = source () in
  let trace = Lsra.Trace.create () in
  let svc = make_service ~deadline_trace:trace () in
  (* The cost model's prior predicts [default_rate] seconds per
     instruction, so a nanosecond budget provably cannot be met by any
     rung but the cheapest. *)
  let resp =
    Service.handle svc
      (Service.request ~id:"tight" ~algo:Lsra.Allocator.Graph_coloring
         ~deadline:1e-9 src)
  in
  Alcotest.(check (option string)) "downgraded to the cheapest rung"
    (Some "poletto") resp.Service.downgraded_to;
  Alcotest.(check int) "stats counter flips" 1 resp.Service.stats.Lsra.Stats.downgrades;
  Alcotest.(check int) "service counter flips" 1
    (Service.counters svc).Service.downgrades;
  (match
     List.filter
       (function Lsra.Trace.Downgrade _ -> true | _ -> false)
       (Lsra.Trace.events trace)
   with
  | [ Lsra.Trace.Downgrade d ] ->
    Alcotest.(check string) "event: request" "tight" d.req;
    Alcotest.(check string) "event: from" "gc" d.from_algo;
    Alcotest.(check string) "event: to" "poletto" d.to_algo;
    Alcotest.(check bool) "event: budget at risk" true
      (d.predicted > d.budget)
  | evs ->
    Alcotest.failf "expected exactly one Downgrade event, got %d"
      (List.length evs));
  (* The downgraded output still passes the oracles: Verify already ran
     on the cold fill (verify_cold is on by default); Diffexec must
     agree that a Poletto allocation of this program preserves
     behaviour... *)
  let prog = Lsra_text.Ir_text.of_string src in
  (match
     Lsra_sim.Diffexec.check machine Lsra.Allocator.Poletto
       (Program.copy prog)
   with
  | Ok () -> ()
  | Error d ->
    Alcotest.failf "downgraded allocator diverges: %s"
      (Lsra_sim.Diffexec.divergence_to_string d));
  (* ...and the served payload is exactly the direct Poletto pipeline,
     so those oracle verdicts apply to the bytes the client got. *)
  ignore
    (Lsra.Allocator.pipeline ~verify:true ~passes:Lsra.Passes.default
       Lsra.Allocator.Poletto machine prog);
  Alcotest.(check string) "served bytes = direct Poletto pipeline"
    (Lsra_text.Ir_text.to_string prog)
    resp.Service.output

let test_generous_deadline_no_downgrade () =
  let src = source () in
  let svc = make_service () in
  let resp =
    Service.handle svc (Service.request ~id:"slack" ~deadline:10.0 src)
  in
  Alcotest.(check (option string)) "no downgrade" None
    resp.Service.downgraded_to;
  Alcotest.(check int) "no downgrade counted" 0
    (Service.counters svc).Service.downgrades

let test_ladder () =
  let shorts algo =
    List.map Lsra.Allocator.short_name (Service.ladder algo)
  in
  Alcotest.(check (list string)) "second-chance ladder"
    [ "binpack"; "twopass"; "poletto" ] (shorts bp);
  Alcotest.(check (list string)) "coloring ladder"
    [ "gc"; "binpack"; "twopass"; "poletto" ]
    (shorts Lsra.Allocator.Graph_coloring);
  Alcotest.(check (list string)) "poletto has no fallback" [ "poletto" ]
    (shorts Lsra.Allocator.Poletto)

(* ------------------------------------------------------------------ *)
(* Scheduler: a parallel batch is bit-identical to sequential, in
   submission order.                                                   *)

let test_batch_parallel_identical () =
  let sources = List.init 6 (fun i -> source ~seed:(20 + i) ~n_funcs:1 ()) in
  let reqs tag =
    List.mapi
      (fun i s -> Service.request ~id:(Printf.sprintf "%s%d" tag i) s)
      sources
  in
  let run jobs tag =
    let sched = Scheduler.create ~jobs (make_service ()) in
    List.map
      (fun ((req : Service.request), result) ->
        match result with
        | Ok (r : Service.response) ->
          Alcotest.(check string) "paired with its own request"
            req.Service.req_id r.Service.resp_id;
          r
        | Error e ->
          Alcotest.failf "request failed: %s" (Printexc.to_string e))
      (Scheduler.run_batch sched (reqs tag))
  in
  let seq = run 1 "s" and par = run 4 "p" in
  Alcotest.(check int) "all served" (List.length sources) (List.length par);
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d in submission order" i)
        (Printf.sprintf "p%d" i) p.Service.resp_id;
      Alcotest.(check string)
        (Printf.sprintf "slot %d bit-identical" i)
        s.Service.output p.Service.output)
    (List.combine seq par)

let test_batch_isolates_errors () =
  let sched = Scheduler.create (make_service ()) in
  let results =
    Scheduler.run_batch sched
      [
        Service.request ~id:"good" (source ());
        Service.request ~id:"bad" "this is not ir\n";
      ]
  in
  match results with
  | [ (_, Ok good); (bad_req, Error _) ] ->
    Alcotest.(check string) "good slot served" "good" good.Service.resp_id;
    Alcotest.(check string) "error paired with the bad request" "bad"
      bad_req.Service.req_id
  | _ -> Alcotest.fail "expected [Ok; Error] in submission order"

let test_capacity_auto_drain () =
  let sched = Scheduler.create ~capacity:2 (make_service ()) in
  let r i = Service.request ~id:(Printf.sprintf "q%d" i) (source ()) in
  Alcotest.(check int) "first enqueued" 0 (List.length (Scheduler.submit sched (r 0)));
  Alcotest.(check int) "capacity drains" 2
    (List.length (Scheduler.submit sched (r 1)));
  Alcotest.(check int) "queue empty after drain" 0 (Scheduler.pending sched)

(* ------------------------------------------------------------------ *)
(* Wire protocol headers.                                              *)

(* One line per parse: a request with its options, a bodiless frame,
   or a rejection with the bytes to skip ("rest": the connection's
   input is discarded). *)
let show_header = function
  | Ok (Protocol.H_req { id; algo; passes; deadline; body_len }) ->
    Printf.sprintf "REQ %s algo=%s passes=%s deadline=%s len=%d" id
      (Lsra.Allocator.short_name algo)
      (Lsra.Passes.to_spec passes)
      (match deadline with None -> "-" | Some d -> Printf.sprintf "%g" d)
      body_len
  | Ok Protocol.H_flush -> "FLUSH"
  | Ok (Protocol.H_stats id) -> "STATS " ^ id
  | Ok Protocol.H_quit -> "QUIT"
  | Error { Protocol.id; body_len; msg = _ } ->
    Printf.sprintf "ERR %s skip=%s" id
      (match body_len with None -> "rest" | Some n -> string_of_int n)

let test_protocol_headers () =
  let default_req id len =
    Printf.sprintf "REQ %s algo=%s passes=%s deadline=- len=%d" id
      (Lsra.Allocator.short_name Lsra.Allocator.default_second_chance)
      (Lsra.Passes.to_spec Lsra.Passes.default)
      len
  in
  List.iter
    (fun (line, expected) ->
      Alcotest.(check string) line expected
        (show_header (Protocol.parse_header line)))
    [
      ( "REQ r1 algo=poletto passes=none deadline-ms=5 len=0",
        "REQ r1 algo=poletto passes=none deadline=0.005 len=0" );
      ("REQ r3 len=17", default_req "r3" 17);
      ("REQ r7 len=3 len=9", default_req "r7" 9);
      ("FLUSH", "FLUSH");
      ("STATS s1", "STATS s1");
      ("QUIT", "QUIT");
      (* Rejected, with a body to skip. *)
      ("REQ r2 algo=nonsense len=5", "ERR r2 skip=5");
      ("REQ r8 deadline-ms=-1 len=5", "ERR r8 skip=5");
      ("REQ bad id with spaces len=4", "ERR bad skip=4");
      ("REQ bad!id len=5", "ERR - skip=5");
      (* Rejected, and the body cannot be delimited. *)
      ("REQ r4 algo=poletto", "ERR r4 skip=rest");
      ("REQ r5 len=-3", "ERR r5 skip=rest");
      ("REQ r6 len=x", "ERR r6 skip=rest");
      ( Printf.sprintf "REQ r9 len=%d" (Protocol.max_body + 1),
        "ERR r9 skip=rest" );
      ("REQ", "ERR - skip=rest");
      (* Not a frame at all: nothing to skip. *)
      ("STATS", "ERR - skip=0");
      ("BOGUS 1", "ERR - skip=0");
    ];
  Alcotest.(check int) "spot-check divergence is exit-code 4" 4
    (Protocol.err_code_of_exn
       (Service.Spot_check_failed { req_id = "x"; key = "k" }))

let test_render_frame () =
  Alcotest.(check string) "no payload" "ERR x 1 m\n"
    (Protocol.render_frame "ERR x 1 m" None);
  Alcotest.(check string) "payload gains len= covering final newline"
    "OK x len=3\nab\n"
    (Protocol.render_frame "OK x" (Some "ab"));
  Alcotest.(check string) "payload with newline untouched" "OK x len=3\nab\n"
    (Protocol.render_frame "OK x" (Some "ab\n"));
  match Protocol.parse_reply "OK r1 cache=hit downgraded-to=poletto wall-us=42 len=7" with
  | Ok (Protocol.R_ok { id; hit; downgraded_to; wall_us; body_len }) ->
    Alcotest.(check string) "reply id" "r1" id;
    Alcotest.(check bool) "hit" true hit;
    Alcotest.(check (option string)) "downgrade" (Some "poletto") downgraded_to;
    Alcotest.(check int) "wall" 42 wall_us;
    Alcotest.(check (option int)) "len" (Some 7) body_len
  | Ok _ -> Alcotest.fail "wrong reply kind"
  | Error e -> Alcotest.failf "reply parse failed: %s" e

let suite =
  [
    Alcotest.test_case "digest: textual round-trip stable" `Quick
      test_digest_round_trip;
    Alcotest.test_case "digest: machine/algo/pass sensitivity" `Quick
      test_digest_sensitivity;
    Alcotest.test_case "cache: LRU order under entry budget" `Quick
      test_lru_entry_budget;
    Alcotest.test_case "cache: LRU eviction under byte budget" `Quick
      test_lru_byte_budget;
    Alcotest.test_case "cache: re-add refreshes in place" `Quick
      test_refresh_in_place;
    Alcotest.test_case "service: cold path = direct pipeline" `Quick
      test_cold_matches_pipeline;
    Alcotest.test_case "service: warm hit, spot-check green" `Quick
      test_warm_hit_and_spot_check;
    Alcotest.test_case "deadline: tight budget downgrades" `Quick
      test_deadline_downgrades;
    Alcotest.test_case "deadline: generous budget does not" `Quick
      test_generous_deadline_no_downgrade;
    Alcotest.test_case "deadline: degradation ladders" `Quick test_ladder;
    Alcotest.test_case "scheduler: parallel batch bit-identical" `Quick
      test_batch_parallel_identical;
    Alcotest.test_case "scheduler: errors stay in their slot" `Quick
      test_batch_isolates_errors;
    Alcotest.test_case "scheduler: capacity auto-drains" `Quick
      test_capacity_auto_drain;
    Alcotest.test_case "protocol: header parsing" `Quick test_protocol_headers;
    Alcotest.test_case "protocol: frame rendering and reply parsing" `Quick
      test_render_frame;
  ]
