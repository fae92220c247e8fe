(* Tests of the benchmark's own arithmetic and input generators. *)

open Perfbench

let pct () =
  Alcotest.(check int) "p99 of 1500 is rank 1485" 1485 (Pct.rank ~p:99 1500);
  Alcotest.(check int) "p50 of 1 is rank 1" 1 (Pct.rank ~p:50 1);
  Alcotest.(check bool) "p99 of 19 samples is unsupported" false
    (Pct.supported ~p:99 19);
  Alcotest.(check bool) "p99 of 1000 leaves 10 beyond" true
    (Pct.supported ~p:99 1000);
  Alcotest.(check bool) "p99 of 999 leaves 9 beyond" false
    (Pct.supported ~p:99 999);
  Alcotest.(check bool) "p90 of 100 leaves 10 beyond" true
    (Pct.supported ~p:90 100);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50" 50. (Pct.nearest_rank ~p:50 a);
  Alcotest.(check (float 0.)) "p90" 90. (Pct.nearest_rank ~p:90 a);
  Alcotest.(check (float 0.)) "p99" 99. (Pct.nearest_rank ~p:99 a);
  Alcotest.(check (float 0.)) "median, unsorted input" 2.
    (Pct.median [| 3.; 1.; 2. |])

(* One unit as the traced chain records it, with the clock readings
   overwritten by hand:
     unit         [0,100]
       parse      [5,20]
       copy       [20,30]   detached probe set-up
       scan       [30,80]
         liveness [30,35]   detached probe
         lifetime [35,45]   detached probe
       emit       [80,95] *)
let span_tree () =
  let t = Spans.create 4 in
  let span ?detached name parent start_ns end_ns =
    let i = Spans.enter ?detached t ~name ~parent ~unit_id:7 in
    Spans.leave t i;
    t.start_ns.(i) <- start_ns;
    t.end_ns.(i) <- end_ns;
    t.minor_words.(i) <- float_of_int (end_ns - start_ns);
    i
  in
  let root = span "unit" (-1) 0 100 in
  ignore (span "ir_text.parse" root 5 20);
  ignore (span ~detached:true "probe.copy" root 20 30);
  let scan = span "binpack.scan" root 30 80 in
  ignore (span ~detached:true "liveness" scan 30 35);
  ignore (span ~detached:true "lifetime" scan 35 45);
  ignore (span "lower.emit" root 80 95);
  t

let self_and_residual () =
  let t = span_tree () in
  Alcotest.(check int) "spans recorded past the initial capacity" 7
    (Spans.length t);
  let totals = Spans.totals_by_name t in
  let self name = fst (Hashtbl.find totals name) in
  Alcotest.(check int) "scan self excludes the probes in its span" 35
    (self "binpack.scan");
  Alcotest.(check (float 0.)) "so do its minor words" 35.
    (snd (Hashtbl.find totals "binpack.scan"));
  Alcotest.(check int) "liveness probe" 5 (self "liveness");
  Alcotest.(check int) "lifetime probe" 10 (self "lifetime");
  Alcotest.(check int) "parse" 15 (self "ir_text.parse");
  Alcotest.(check bool) "the root is not a layer" false (Hashtbl.mem totals "unit");
  match Spans.roots t with
  | [ (root, wall, residual) ] ->
    Alcotest.(check int) "root index" 0 root;
    Alcotest.(check int) "wall excludes detached spans" 75 wall;
    Alcotest.(check int) "residual is the uncovered part of the wall" 10 residual;
    let layers =
      List.fold_left (fun acc n -> acc + self n) 0
        [ "ir_text.parse"; "binpack.scan"; "lower.emit" ]
    in
    Alcotest.(check int) "attached layers + residual = wall" wall (layers + residual)
  | _ -> Alcotest.fail "expected exactly one root"

let sources us = Array.map (fun (u : Inputs.unit_) -> u.source) us

let seeded name gen =
  Alcotest.(check (array string)) (name ^ ": same seed, same inputs") (gen 11) (gen 11);
  Alcotest.(check bool) (name ^ ": another seed, other inputs") false (gen 11 = gen 12)

let fixed name gen =
  Alcotest.(check (array string)) (name ^ ": the same programs every time") (gen ()) (gen ())

let generators () =
  fixed "jit-small" (fun () -> sources (Inputs.jit_small ~count:12));
  fixed "table3-large" (fun () -> sources (Inputs.table3_large ~procs:3));
  fixed "serve-zipf hot set" (fun () -> sources (Inputs.serve_hot ~count:6));
  seeded "pass order" (fun seed ->
      Array.map string_of_int (Inputs.permutation (Inputs.rng ~seed ~salt:1) 50));
  fixed "serve-zipf cold pool" (fun () -> sources (Inputs.serve_cold ~count:6));
  let stream seed =
    Inputs.serve_stream ~seed ~hot:50 ~cold:40 ~period:10 ~s:1.1
    |> Array.map (function
         | Inputs.Hot i -> Printf.sprintf "h%d" i
         | Inputs.Cold c -> Printf.sprintf "c%d" c)
  in
  seeded "serve-zipf stream" stream;
  let mix seed = List.sort compare (Array.to_list (stream seed)) in
  Alcotest.(check (list string)) "every seed requests the same mix" (mix 11) (mix 12);
  let counts = Inputs.zipf_counts ~s:1.1 50 360 in
  Alcotest.(check int) "the mix has one request per hot slot" 360
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check bool) "counts fall with rank" true
    (Array.for_all Fun.id (Array.init 49 (fun r -> counts.(r) >= counts.(r + 1))));
  let s = stream 3 in
  Array.iteri
    (fun b _ ->
      let block = Array.sub s (b * 10) 10 |> Array.to_list in
      Alcotest.(check int)
        (Printf.sprintf "block %d holds one cold request" b)
        1
        (List.length (List.filter (fun x -> x.[0] = 'c') block));
      Alcotest.(check bool) "cold programs are used in order" true
        (List.mem (Printf.sprintf "c%d" b) block))
    (Array.make 40 ())

let calibration () =
  let collections () = (Gc.quick_stat ()).minor_collections in
  let before = collections () in
  ignore (Calib.kernel_ns ());
  Alcotest.(check int) "the kernel's rounds fit in the minor heap it empties"
    Calib.rounds
    (collections () - before);
  let c = Calib.create ~every_ns:max_int () in
  Alcotest.(check int) "timings start in chunk 0" 0 (Calib.chunk c);
  Calib.tick c;
  Alcotest.(check int) "a tick before every_ns keeps the chunk" 0 (Calib.chunk c);
  Calib.cut c;
  Calib.cut c;
  Alcotest.(check int) "each cut ends a chunk" 2 (Calib.chunk c);
  let k = Calib.kernel_times c and s = Calib.scales c in
  Alcotest.(check int) "one scale per ended chunk" 2 (Array.length s);
  Array.iteri
    (fun i k ->
      Alcotest.(check (float 1e-12)) "scale = nominal / kernel"
        (float_of_int Calib.nominal_ns /. float_of_int k)
        s.(i))
    k

let report () =
  Alcotest.(check string) "shortest round-trip" "0.1" (Report.number 0.1);
  Alcotest.(check string) "all digits kept" "0.30000000000000004"
    (Report.number (0.1 +. 0.2));
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
    (Report.result_json ~correct:true ~attempted:3 ~failed:0
       [ Report.metric "setup_s" "s" 1.5 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick pct;
          Alcotest.test_case "self time and residual" `Quick self_and_residual;
          Alcotest.test_case "seeded generators" `Quick generators;
          Alcotest.test_case "calibration" `Quick calibration;
          Alcotest.test_case "result json" `Quick report;
        ] );
    ]
