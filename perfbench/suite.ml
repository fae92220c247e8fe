(* The repository benchmark: one workload per process, from one thread.

     suite.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see README.md for why each exists):
     jit-small     1200 small generated units compiled on alpha
     table3-large  the Table-3 modules plus 47 big generated procedures
     spill-small8  Specbench + Minilang corpus on small-8, run natively
     serve-zipf    lsra_tool serve answering a Zipf request stream

   Every unit first goes through an untimed oracle pass (Precheck,
   Verify, interpreter before and after allocation, native run); every
   timed operation is then checked against that pass. With --trace 0
   the end-to-end metrics are measured, timings scaled to a nominal host
   speed (see lib/calib.ml); with --trace 1 the chain is
   called layer by layer through public functions, spans are recorded
   around each call, and the per-layer metrics are reported. Prints one
   "name workload value unit" line per metric and, last, the result as
   one JSON object. Exits 0, 2 on a usage error, 4 on a wrong output or
   any other failure. *)

open Lsra_ir
open Lsra_target
open Perfbench

let binpack = Lsra.Allocator.default_second_chance
let now_ns = Spans.now_ns
let seconds_of_ns ns = float_of_int ns /. 1e9

let geomean a =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float_of_int (Array.length a))

let usage msg =
  Printf.eprintf
    "perfbench: %s\n\
     usage: suite.exe --workload jit-small|table3-large|spill-small8|serve-zipf \
     --seed N --seconds S --trace 0|1\n"
    msg;
  exit 2

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                              *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then Printf.eprintf "perfbench: WRONG OUTPUT: %s\n%!" what
  end

exception Wrong

let fail_now what =
  check false what;
  raise Wrong

(* ------------------------------------------------------------------ *)
(* Child processes, scratch files                                      *)

let children = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  children := List.filter (( <> ) pid) !children;
  st

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error _ -> ())
    !children

let spawn prog args ~stdout =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = Option.value stdout ~default:devnull in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) devnull out
      Unix.stderr
  in
  Unix.close devnull;
  children := pid :: !children;
  pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc e -> acc + dir_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun e ->
      let src = Filename.concat src e and dst = Filename.concat dst e in
      if Sys.is_directory src then copy_dir src dst
      else
        Out_channel.with_open_bin dst (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all)))
    (Sys.readdir src)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* ------------------------------------------------------------------ *)
(* The compile chain                                                   *)

let emit m prog =
  match Lsra_native.Lower.compile m prog with
  | Ok c -> c
  | Error e -> fail_now ("native emission failed: " ^ e)

(* The untraced operation a JIT performs per unit: parse, the default
   binpack pipeline (DCE, allocation, peephole), native emission. *)
let compile_program m source =
  let prog = Lsra_text.Ir_text.of_string source in
  ignore (Lsra.Allocator.pipeline binpack m prog);
  (prog, emit m prog)

let compile_unit m source = (snd (compile_program m source)).Lsra_native.Lower.code

(* Per-layer counters of one traced pass. *)
type counts = {
  mutable dce_removed : int;
  mutable peephole_removed : int;
  mutable static_spills : int;
  mutable resolution_instrs : int;
  mutable dataflow_rounds : int;
  mutable code_bytes : int;
  mutable source_bytes : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let fresh_counts () =
  {
    dce_removed = 0;
    peephole_removed = 0;
    static_spills = 0;
    resolution_instrs = 0;
    dataflow_rounds = 0;
    code_bytes = 0;
    source_bytes = 0;
    minor_gcs = 0;
    major_gcs = 0;
  }

(* The same chain as [compile_unit], one public call per layer, each in
   a span. The scan computes liveness and loops + lifetimes itself, so
   its span first recomputes both on a copy of the function, as detached
   probes; [chain_totals] charges that part of the scan to the probes'
   layers. *)
let traced_unit spans counts m ~unit_id source =
  let g0 = Gc.quick_stat () in
  let root = Spans.enter spans ~name:"unit" ~parent:(-1) ~unit_id in
  let prog =
    Spans.span spans ~name:"ir_text.parse" ~parent:root ~unit_id (fun () ->
        Lsra_text.Ir_text.of_string source)
  in
  counts.dce_removed <-
    counts.dce_removed
    + Spans.span spans ~name:"passes.dce" ~parent:root ~unit_id (fun () ->
          Lsra.Passes.run_pass Lsra.Passes.Dce prog);
  List.iter
    (fun (_, f) ->
      let copy, regidx =
        Spans.span spans ~detached:true ~name:"probe.copy" ~parent:root ~unit_id
          (fun () -> (Func.copy f, Lsra.Regidx.create m))
      in
      let scan = Spans.enter spans ~name:"binpack.scan" ~parent:root ~unit_id in
      let live =
        Spans.span spans ~detached:true ~name:"liveness" ~parent:scan ~unit_id
          (fun () -> Lsra_analysis.Liveness.compute copy)
      in
      Spans.span spans ~detached:true ~name:"lifetime" ~parent:scan ~unit_id
        (fun () ->
          let loops = Lsra_analysis.Loop.compute (Func.cfg copy) in
          ignore (Lsra.Lifetime.compute regidx copy live loops));
      let scanned = Lsra.Binpack.scan m f in
      Spans.leave spans scan;
      Spans.span spans ~name:"resolution" ~parent:root ~unit_id (fun () ->
          Lsra.Resolution.run scanned);
      let s = scanned.Lsra.Binpack.stats in
      counts.static_spills <-
        counts.static_spills + s.Lsra.Stats.evict_loads + s.evict_stores
        + s.evict_moves;
      counts.resolution_instrs <-
        counts.resolution_instrs + s.resolve_loads + s.resolve_stores
        + s.resolve_moves;
      counts.dataflow_rounds <- counts.dataflow_rounds + s.dataflow_rounds)
    (Program.funcs prog);
  counts.peephole_removed <-
    counts.peephole_removed
    + Spans.span spans ~name:"passes.peephole" ~parent:root ~unit_id (fun () ->
          Lsra.Passes.run_pass Lsra.Passes.Peephole prog);
  let code =
    Spans.span spans ~name:"lower.emit" ~parent:root ~unit_id (fun () ->
        (emit m prog).Lsra_native.Lower.code)
  in
  Spans.leave spans root;
  let g1 = Gc.quick_stat () in
  counts.minor_gcs <- counts.minor_gcs + g1.minor_collections - g0.minor_collections;
  counts.major_gcs <- counts.major_gcs + g1.major_collections - g0.major_collections;
  counts.code_bytes <- counts.code_bytes + Bytes.length code;
  counts.source_bytes <- counts.source_bytes + String.length source;
  code

(* ------------------------------------------------------------------ *)
(* Oracle pass                                                         *)

(* What the untimed oracle pass establishes about one unit; every timed
   operation is checked against it. Texts and code are kept as digests,
   so that the reference data does not dominate the suite's memory. *)
type reference = {
  instrs : int;  (** static instructions of the source program *)
  text : Digest.t;  (** of the allocated program, as a server returns it *)
  code : Digest.t;  (** of the emitted machine code *)
  code_bytes : int;
  out : Digest.t;  (** of the output of the pre-allocation program *)
  ret : Lsra_sim.Value.t;
  pre_dyn : int;
  post_dyn : int;
  post_spill : int;
}

(* Oracle layers, timed for the per-layer report. *)
let oracle_ns = Hashtbl.create 8

let oracle_time name f =
  let t0 = now_ns () in
  let v = f () in
  let dt = now_ns () - t0 in
  Hashtbl.replace oracle_ns name
    (dt + Option.value ~default:0 (Hashtbl.find_opt oracle_ns name));
  v

let interp m prog (u : Inputs.unit_) =
  match
    oracle_time "interp" (fun () ->
        Lsra_sim.Interp.run m prog ~input:u.Inputs.input)
  with
  | Ok o -> o
  | Error e -> fail_now (u.name ^ ": interpreter trapped: " ^ e)

let same_ret (ret : Lsra_sim.Value.t) native =
  match ret with Lsra_sim.Value.Int k -> k = native | _ -> true

let oracle m (u : Inputs.unit_) =
  let prog = Lsra_text.Ir_text.of_string u.source in
  let instrs = Inputs.n_instrs prog in
  oracle_time "precheck" (fun () ->
      List.iter (fun (_, f) -> Lsra.Precheck.run m f) (Program.funcs prog));
  let pre = interp m (Program.copy prog) u in
  ignore (Lsra.Passes.run_pass Lsra.Passes.Dce prog);
  let originals = List.map (fun (n, f) -> (n, Func.copy f)) (Program.funcs prog) in
  ignore (Lsra.Allocator.run_program binpack m prog);
  ignore (Lsra.Passes.run_pass Lsra.Passes.Peephole prog);
  oracle_time "verify" (fun () ->
      List.iter
        (fun (n, allocated) ->
          Lsra.Verify.run m ~original:(List.assoc n originals) ~allocated)
        (Program.funcs prog));
  let text = Lsra_text.Ir_text.to_string prog in
  let post = interp m prog u in
  check
    (post.Lsra_sim.Interp.output = pre.Lsra_sim.Interp.output
    && Lsra_sim.Value.equal post.ret pre.ret)
    (u.name ^ ": allocated program diverges from the original");
  let compiled = emit m prog in
  let heap_words = Program.heap_words prog in
  let native =
    oracle_time "exec.native" (fun () ->
        Lsra_native.Exec.run_compiled ~input:u.input compiled ~heap_words)
  in
  check
    (native.Lsra_native.Exec.trap = None
    && native.output = pre.output
    && same_ret pre.ret native.ret)
    (u.name ^ ": native run diverges from the interpreter");
  {
    instrs;
    text = Digest.string text;
    code = Digest.bytes compiled.code;
    code_bytes = Bytes.length compiled.code;
    out = Digest.string pre.output;
    ret = pre.ret;
    pre_dyn = pre.counts.total;
    post_dyn = post.counts.total;
    post_spill = Lsra_sim.Interp.spill_total post.counts;
  }

(* Allocation quality over the oracle pass, as geometric means of
   per-unit ratios so no single long-running program dominates:
   dynamic instructions after allocation per instruction before it (the
   paper's Table 1 measure; spill and resolution code raise it, DCE and
   the peephole lower it) and emitted bytes per source instruction. *)
let quality refs =
  let ratio f g = geomean (Array.map (fun r -> float_of_int (f r) /. float_of_int (g r)) refs) in
  [
    Report.metric "code_bytes_per_instr" "bytes/instr"
      (ratio (fun r -> r.code_bytes) (fun r -> r.instrs));
    Report.metric "dyn_instr_ratio" "ratio"
      (ratio (fun r -> r.post_dyn) (fun r -> r.pre_dyn));
  ]

(* ------------------------------------------------------------------ *)
(* Timed passes                                                        *)

(* Run whole passes over [n] units in a fresh seeded order each, until
   [seconds] are used (a pass is only started if the last one would
   still fit) and at least [min_passes] have run. *)
let run_passes ~rng ~seconds ~min_passes n f =
  let t0 = now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go pass last =
    let elapsed = now_ns () - t0 in
    if pass < min_passes || elapsed + last <= budget then begin
      let p0 = now_ns () in
      f pass (Inputs.permutation rng n);
      go (pass + 1) (now_ns () - p0)
    end
    else pass
  in
  go 0 0

(* Geometric mean and tail percentile of latency samples, in ms. The
   geometric mean, not the median: a program suite's median can sit
   between two programs and jump from one to the other. *)
let latency_ms ~tail_p ms =
  let n = Array.length ms in
  if not (Pct.supported ~p:tail_p n) then
    failwith
      (Printf.sprintf "p%d needs %d samples beyond it; have %d samples" tail_p
         Pct.min_beyond n);
  (geomean ms, Pct.nearest_rank ~p:tail_p (Pct.sorted_copy ms))

let latency_metrics (gmean, tail) =
  [
    Report.metric "latency_gmean_ms" "ms" gmean;
    Report.metric "latency_tail_ms" "ms" tail;
  ]

(* Prints the host speed [calib] saw, and the timing metrics computed by
   [timings] unscaled, as comments; returns them scaled. [timings]
   receives the scale of each calibration chunk. *)
let scaled calib timings =
  let k = Array.map (fun ns -> float_of_int ns /. 1e6) (Calib.kernel_times calib) in
  Printf.printf "# host speed: kernel median %.4f ms (%.4f-%.4f) over %d chunks\n"
    (Pct.median k) (Array.fold_left Float.min infinity k) (Array.fold_left Float.max 0. k)
    (Array.length k);
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "# raw %s %s %s\n" m.name (Report.number m.value) m.unit_)
    (timings (fun _ -> 1.));
  let scales = Calib.scales calib in
  timings (fun c -> scales.(c))

(* The timing metrics of [ops] operations whose latencies are [ms] and
   which did [work] (instructions compiled, executed or served) in
   [busy_s] seconds. *)
let timing_metrics ~tail_p ~ops ~work ~busy_s ms =
  latency_metrics (latency_ms ~tail_p ms)
  @ [
      Report.metric "ops_per_s" "1/s" (float_of_int ops /. busy_s);
      Report.metric "instrs_per_s" "instr/s" (float_of_int work /. busy_s);
    ]

(* Times [op i] for every unit, pass after pass. Every time is scaled by
   the calibration chunk it fell in, and the samples of all passes are
   pooled. [work] sizes a unit (instructions compiled or executed). *)
let timed_units ~rng ~seconds ~min_passes ~tail_p ~what ~work n op =
  let calib = Calib.create () in
  let samples = ref [] in
  let passes =
    run_passes ~rng ~seconds ~min_passes n (fun _ order ->
        Array.iter
          (fun i ->
            let t = op i in
            samples := (i, t, Calib.chunk calib) :: !samples;
            Calib.tick calib)
          order)
  in
  Calib.cut calib;
  let samples = Array.of_list !samples in
  Printf.printf "# %d %s passes over %d units: latency over %d samples, tail = p%d\n"
    passes what n (Array.length samples) tail_p;
  let work = Array.fold_left (fun acc (i, _, _) -> acc + work i) 0 samples in
  scaled calib (fun scale ->
      let ms = Array.map (fun (_, t, c) -> float_of_int t *. scale c /. 1e6) samples in
      timing_metrics ~tail_p ~ops:(Array.length samples) ~work
        ~busy_s:(Array.fold_left ( +. ) 0. ms /. 1e3)
        ms)

let timed_compile ~rng ~seconds ~min_passes ~tail_p m units refs =
  timed_units ~rng ~seconds ~min_passes ~tail_p ~what:"compile"
    ~work:(fun i -> refs.(i).instrs)
    (Array.length units)
    (fun i ->
      let t0 = now_ns () in
      let code = compile_unit m units.(i).Inputs.source in
      let dt = now_ns () - t0 in
      check (Digest.bytes code = refs.(i).code)
        (units.(i).name ^ ": timed compile emitted different bytes");
      dt)

let timed_exec ~rng ~seconds ~min_passes ~tail_p m units refs =
  let programs =
    Array.mapi
      (fun i (u : Inputs.unit_) ->
        let prog, compiled = compile_program m u.source in
        check (Digest.bytes compiled.code = refs.(i).code)
          (u.name ^ ": compile emitted different bytes");
        (compiled, Program.heap_words prog))
      units
  in
  timed_units ~rng ~seconds ~min_passes ~tail_p ~what:"native"
    ~work:(fun i -> refs.(i).post_dyn)
    (Array.length units)
    (fun i ->
      let r = refs.(i) and compiled, heap_words = programs.(i) in
      let t0 = now_ns () in
      let o =
        Lsra_native.Exec.run_compiled ~input:units.(i).Inputs.input compiled
          ~heap_words
      in
      let dt = now_ns () - t0 in
      check
        (o.Lsra_native.Exec.trap = None
        && Digest.string o.output = r.out
        && same_ret r.ret o.ret)
        (units.(i).name ^ ": native run diverged");
      dt)

(* ------------------------------------------------------------------ *)
(* Set-up: a cold one-shot compile                                     *)

(* Process start to allocated program out: one [lsra_tool alloc] of
   [u] in a fresh process. Returns seconds. *)
let cold_start ~tool m (u : Inputs.unit_) (r : reference) =
  write_file "setup.lsra" u.source;
  let out = Unix.openfile "setup.out" [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let t0 = now_ns () in
  let pid =
    spawn tool
      [ "alloc"; "setup.lsra"; "-m"; Inputs.cli_machine m; "-j"; "1" ]
      ~stdout:(Some out)
  in
  let st = reap pid in
  let dt = now_ns () - t0 in
  Unix.close out;
  check
    (st = Unix.WEXITED 0
    && Digest.file "setup.out" = r.text)
    "lsra_tool alloc printed a different allocation";
  seconds_of_ns dt

(* ------------------------------------------------------------------ *)
(* The allocation server                                               *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    mutable buf : Bytes.t;
    mutable rpos : int;
    mutable wpos : int;
  }

  let sock = "serve.sock"

  let connect ~pid =
    let deadline = now_ns () + 60_000_000_000 in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> { fd; buf = Bytes.create 65536; rpos = 0; wpos = 0 }
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
          children := List.filter (( <> ) pid) !children;
          failwith "lsra_tool serve exited before accepting connections");
        if now_ns () > deadline then failwith "lsra_tool serve did not start";
        Unix.sleepf 0.0002;
        go ()
    in
    go ()

  let send c s =
    let b = Bytes.unsafe_of_string s in
    let rec go off =
      if off < Bytes.length b then
        go (off + Unix.write c.fd b off (Bytes.length b - off))
    in
    go 0

  (* Read what the socket has into the buffer (blocking). *)
  let fill c =
    if c.wpos = Bytes.length c.buf then begin
      let live = c.wpos - c.rpos in
      let nb =
        if live * 2 > Bytes.length c.buf then Bytes.create (2 * Bytes.length c.buf)
        else c.buf
      in
      Bytes.blit c.buf c.rpos nb 0 live;
      c.buf <- nb;
      c.rpos <- 0;
      c.wpos <- live
    end;
    let n = Unix.read c.fd c.buf c.wpos (Bytes.length c.buf - c.wpos) in
    if n = 0 then failwith "lsra_tool serve closed the connection";
    c.wpos <- c.wpos + n

  (* A complete reply (header and body) if one is buffered. *)
  let take c =
    match Bytes.index_from_opt c.buf c.rpos '\n' with
    | Some nl when nl < c.wpos -> (
      let line = Bytes.sub_string c.buf c.rpos (nl - c.rpos) in
      match Lsra_service.Protocol.parse_reply line with
      | Error e -> failwith ("bad reply from lsra_tool serve: " ^ e)
      | Ok (Lsra_service.Protocol.R_ok { body_len = Some len; _ } as r) ->
        if c.wpos - (nl + 1) >= len then begin
          let body = Bytes.sub_string c.buf (nl + 1) len in
          c.rpos <- nl + 1 + len;
          Some (r, body)
        end
        else None
      | Ok r ->
        c.rpos <- nl + 1;
        Some (r, ""))
    | Some _ | None -> None

  let rec reply c = match take c with Some r -> r | None -> fill c; reply c

  let stats c =
    send c "STATS s\n";
    match reply c with
    | Lsra_service.Protocol.R_stats { fields; _ }, _ ->
      fun k -> int_of_string (List.assoc k fields)
    | _ -> failwith "expected a STATS reply"
end

type server = { pid : int; conn : Client.conn }

let boot ?(verify = true) ?(store_dir = "store") ~tool m =
  let pid =
    spawn tool
      ([
         "serve"; "-j"; "1"; "-m"; Inputs.cli_machine m; "--socket"; Client.sock;
         "--store-dir"; store_dir;
       ]
      @ if verify then [] else [ "--no-verify" ])
      ~stdout:None
  in
  let conn = Client.connect ~pid in
  let warm = Client.stats conn "warm-loaded" in
  ({ pid; conn }, warm)

let shutdown s =
  Client.send s.conn "QUIT\n";
  let st = reap s.pid in
  Unix.close s.conn.fd;
  if st <> Unix.WEXITED 0 then failwith "lsra_tool serve exited abnormally"

(* One served request, as the client saw it. *)
type served = {
  rtt_ns : int;
  chunk : int;  (** the calibration chunk it was timed in *)
  wall_us : int;
  hit : bool;
  body : string;
}

let request_frame id source =
  Lsra_service.Protocol.render_frame ("REQ " ^ id) (Some source)

let served_of ~chunk t0 = function
  | Lsra_service.Protocol.R_ok { hit; wall_us; _ }, body ->
    let t1 = now_ns () in
    { rtt_ns = t1 - t0; chunk; wall_us; hit; body }
  | Lsra_service.Protocol.R_err { id; code; msg }, _ ->
    fail_now (Printf.sprintf "request %s: ERR %d %s" id code msg)
  | Lsra_service.Protocol.R_stats _, _ -> failwith "unexpected STATS reply"

(* An untimed server lifetime that journals [prefill]. It runs without
   the verifier: the oracle pass has verified every hot program, and
   every body it returns is checked against that pass. *)
let prefill_journal ~tool m prefill =
  let s, _ = boot ~verify:false ~tool m in
  let served =
    Array.mapi
      (fun i src ->
        let t0 = now_ns () in
        Client.send s.conn (request_frame (Printf.sprintf "p%d" i) src);
        served_of ~chunk:0 t0 (Client.reply s.conn))
      prefill
  in
  shutdown s;
  served

(* Spawn to first STATS reply of a fresh server over the journal, which
   it warm-loads first. *)
let boot_seconds ~tool m =
  let t0 = now_ns () in
  let s, _ = boot ~tool m in
  let dt = now_ns () - t0 in
  shutdown s;
  seconds_of_ns dt

type session = {
  warm_loaded : int;
  stream : served array;  (** in stream order *)
  hits : int;
  misses : int;
  blocks : (int * int) array;  (** wall ns and calibration chunk of each block *)
  server_rss_mb : float;
  journal_bytes : int;
}

(* Requests per block of a served stream: about a third of a second of
   serving. *)
let serve_block = 100

(* A fresh server over the journal in [store_dir] answers [stream] in a
   closed loop over two connections driven by this one thread, in blocks
   of [serve_block] requests. A block ends when both connections are
   idle; given [calib], the host's speed is sampled there, so the
   calibration kernel never runs while a request is in flight. *)
let serve_stream ?calib ?(store_dir = "store") ~tool m (stream : string array) =
  let s, warm_loaded = boot ~store_dir ~tool m in
  let b = Client.connect ~pid:s.pid in
  let conns = [| s.conn; b |] in
  let inflight = Array.make 2 (-1, 0) in
  let served = Array.make (Array.length stream) None in
  let requests = Array.length stream in
  let block lo hi =
    let chunk = Option.fold ~none:0 ~some:Calib.chunk calib in
    let next = ref lo in
    let send k =
      if !next < hi then begin
        let r = !next in
        incr next;
        inflight.(k) <- (r, now_ns ());
        Client.send conns.(k) (request_frame (Printf.sprintf "r%d" r) stream.(r))
      end
      else inflight.(k) <- (-1, 0)
    in
    let t0 = now_ns () in
    send 0;
    send 1;
    while fst inflight.(0) >= 0 || fst inflight.(1) >= 0 do
      let waiting =
        List.filter (fun k -> fst inflight.(k) >= 0) [ 0; 1 ]
        |> List.map (fun k -> conns.(k).Client.fd)
      in
      let ready, _, _ = Unix.select waiting [] [] (-1.) in
      Array.iteri
        (fun k c ->
          if List.mem c.Client.fd ready then begin
            Client.fill c;
            match Client.take c with
            | Some reply ->
              let r, sent = inflight.(k) in
              served.(r) <- Some (served_of ~chunk sent reply);
              send k
            | None -> ()
          end)
        conns
    done;
    let wall = (now_ns () - t0, chunk) in
    Option.iter Calib.cut calib;
    wall
  in
  let blocks =
    Array.init
      ((requests + serve_block - 1) / serve_block)
      (fun j -> block (j * serve_block) (min requests ((j + 1) * serve_block)))
  in
  Unix.close b.fd;
  let stat = Client.stats s.conn in
  let hits = stat "hits" and misses = stat "misses" in
  let server_rss_mb = peak_rss_mb (string_of_int s.pid) in
  shutdown s;
  {
    warm_loaded;
    stream = Array.map Option.get served;
    blocks;
    hits;
    misses;
    server_rss_mb;
    journal_bytes = dir_bytes store_dir;
  }

(* ------------------------------------------------------------------ *)
(* Service layers replayed in process                                  *)

(* Replays a request sequence in this process twice, request by request
   and in alternating order so both replays meet the machine in the same
   state: once through the public calls [Service.handle] makes (parse,
   print, cache key, cache lookup, pipeline, cache insert, journal
   append), each timed, and once through [Service.handle] itself, on a
   cache and store of its own. Between the journaled prefill and the
   stream both stores are reopened, as a restarted server warm-loads its
   journal. Returns nanoseconds per component, their sum and the
   [Service.handle] total, and checks that both replays return the
   expected allocation. *)
let service_replay m ~prefill ~stream =
  let module S = Lsra_service in
  let ns = Hashtbl.create 16 in
  let timed name f =
    let t0 = now_ns () in
    let v = f () in
    let dt = now_ns () - t0 in
    Hashtbl.replace ns name (dt + Option.value ~default:0 (Hashtbl.find_opt ns name));
    v
  in
  let passes = Lsra.Passes.default in
  let algo = Lsra.Allocator.short_name binpack in
  let components cache store (source, expected) =
    let prog = timed "ir_text.parse" (fun () -> Lsra_text.Ir_text.of_string source) in
    ignore (timed "ir_text.print" (fun () -> Lsra_text.Ir_text.to_string prog));
    let key =
      timed "cachekey.digest" (fun () ->
          S.Cachekey.digest ~machine:m ~algo:binpack ~passes prog)
    in
    let output =
      match timed "cache.find" (fun () -> S.Cache.find cache key) with
      | Some e -> e.S.Cache.output
      | None ->
        let stats =
          timed "allocator.pipeline" (fun () ->
              Lsra.Allocator.pipeline ~precheck:true ~verify:true ~passes binpack
                m prog)
        in
        let output =
          timed "ir_text.print" (fun () -> Lsra_text.Ir_text.to_string prog)
        in
        timed "cache.add" (fun () -> S.Cache.add cache key { S.Cache.output; stats; algo });
        timed "store.append" (fun () -> S.Store.append store ~key ~algo ~output);
        output
    in
    check (Digest.string output = expected)
      "in-process service replay returned a different allocation"
  in
  let store_open dir =
    let store = timed "store.open" (fun () -> S.Store.open_ ~dir ()) in
    let records = timed "store.open" (fun () -> S.Store.load store) in
    let cache = S.Cache.create () in
    List.iter
      (fun (key, algo, output) ->
        timed "cache.add" (fun () ->
            S.Cache.add cache key { S.Cache.output; stats = Lsra.Stats.create (); algo }))
      records;
    (cache, store)
  in
  let handle_ns = ref 0 in
  let handled svc (source, expected) =
    let t0 = now_ns () in
    let r = S.Service.handle svc (S.Service.request ~id:"r" source) in
    handle_ns := !handle_ns + (now_ns () - t0);
    check (Digest.string r.S.Service.output = expected)
      "Service.handle returned a different allocation"
  in
  let service () =
    let t0 = now_ns () in
    let svc =
      S.Service.create
        { (S.Service.default_config m) with S.Service.store_dir = Some "replay-handle" }
    in
    handle_ns := !handle_ns + (now_ns () - t0);
    svc
  in
  let phase requests =
    let cache, store = store_open "replay-layers" in
    let svc = service () in
    Array.iteri
      (fun r req ->
        if r mod 2 = 0 then begin
          components cache store req;
          handled svc req
        end
        else begin
          handled svc req;
          components cache store req
        end)
      requests;
    S.Store.close store;
    Option.iter S.Store.close (S.Service.store svc)
  in
  phase prefill;
  phase stream;
  (ns, Hashtbl.fold (fun _ v acc -> acc + v) ns 0, !handle_ns)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Every workload runs whole passes over its units (serve-zipf: over its
   request stream) until its time is used, and at least [min_passes]. *)
type kind =
  | Compile of { min_passes : int }
  | Exec of { min_passes : int }
  | Serve of { min_passes : int }

type workload = {
  machine : Machine.t;
  units : Inputs.unit_ array;  (** serve-zipf: the hot set *)
  kind : kind;
  tail_p : int;  (** a percentile the workload's sample always supports *)
}

(* serve-zipf: 300 hot programs and a stream of 1000 requests with one
   never-seen program in every block of 10. *)
let serve_hot = 300
let serve_cold_pool = 100
let serve_period = 10
let serve_zipf_s = 1.1

(* Set-up samples per run, reported as their median. *)
let setup_boots = 15

(* Units of a compile or exec workload sent to the server in the traced
   run: enough to measure the service layers on this workload's
   programs, few enough that the run stays short. *)
let service_units = 100

let workload name =
  match name with
  | "jit-small" ->
    {
      machine = Machine.alpha_like;
      units = Inputs.jit_small ~count:1200;
      kind = Compile { min_passes = 3 };
      tail_p = 99;
    }
  | "table3-large" ->
    {
      machine = Machine.alpha_like;
      units = Inputs.table3_large ~procs:47;
      kind = Compile { min_passes = 6 };
      tail_p = 90;
    }
  | "spill-small8" ->
    {
      machine = Inputs.small8;
      units = Inputs.spill_small8 ~scale:100;
      kind = Exec { min_passes = 21 };
      tail_p = 90;
    }
  | "serve-zipf" ->
    {
      machine = Machine.alpha_like;
      units = Inputs.serve_hot ~count:serve_hot;
      kind = Serve { min_passes = 3 };
      tail_p = 95;
    }
  | other -> usage (Printf.sprintf "unknown workload %S" other)

(* The oracle pass over every unit. [setup], when given, is sampled
   [setup_boots] times at even intervals through the pass (it receives
   the first unit's reference), so drift in the machine's speed reaches
   the set-up samples as it reaches the timed passes. *)
let oracle_pass ?setup m units =
  let n = Array.length units in
  let t0 = now_ns () in
  let refs = Array.make n None and samples = ref [] in
  Array.iteri
    (fun i u ->
      refs.(i) <- Some (oracle m u);
      match setup with
      | Some f when (i + 1) * setup_boots / n > i * setup_boots / n ->
        samples := f (Option.get refs.(0)) :: !samples
      | Some _ | None -> ())
    units;
  Printf.printf "# oracle pass over %d units: %.1f s (%s)\n%!" n
    (seconds_of_ns (now_ns () - t0))
    (String.concat ", "
       (Hashtbl.fold
          (fun k v acc -> Printf.sprintf "%s %.2f s" k (seconds_of_ns v) :: acc)
          oracle_ns []));
  (Array.map Option.get refs, Array.of_list !samples)

(* What a server is asked: a journaled prefill and a request stream, as
   program sources. serve-zipf prefills its hot set and streams a Zipf
   mix of it plus cold programs; the others stream their first units twice,
   cold then warm, with no prefill. *)
let service_requests ~rng ~seed (w : workload) =
  let source (u : Inputs.unit_) = u.source in
  match w.kind with
  | Serve _ ->
    let cold = Inputs.serve_cold ~count:serve_cold_pool in
    ( Array.map source w.units,
      Inputs.serve_stream ~seed ~hot:serve_hot ~cold:serve_cold_pool
        ~period:serve_period ~s:serve_zipf_s
      |> Array.map (function
           | Inputs.Hot i -> source w.units.(i)
           | Inputs.Cold c -> source cold.(c)) )
  | Compile _ | Exec _ ->
    let n = min service_units (Array.length w.units) in
    let once () = Array.map (fun i -> source w.units.(i)) (Inputs.permutation rng n) in
    ([||], Array.append (once ()) (once ()))

(* The digest of the expected body and the instruction count of every
   request: from the oracle pass, or for programs outside the workload's
   units from a direct pipeline run. *)
let expected_bodies m refs (w : workload) sources =
  let index = Hashtbl.create (Array.length w.units) in
  Array.iteri (fun i (u : Inputs.unit_) -> Hashtbl.replace index u.source i) w.units;
  Array.map
    (fun source ->
      match Hashtbl.find_opt index source with
      | Some i -> (refs.(i).text, refs.(i).instrs)
      | None ->
        let prog = Lsra_text.Ir_text.of_string source in
        let n = Inputs.n_instrs prog in
        ignore (Lsra.Allocator.pipeline binpack m prog);
        (Digest.string (Lsra_text.Ir_text.to_string prog), n))
    sources

let check_bodies expected (served : served array) =
  Array.iteri
    (fun r (s : served) ->
      check (Digest.string s.body = fst expected.(r))
        (Printf.sprintf "request %d: served body differs" r))
    served

let check_served m refs w sources served =
  let expected = expected_bodies m refs w (Array.sub sources 0 (Array.length served)) in
  check_bodies expected served;
  expected

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

let end_to_end ~tool ~rng ~seed ~seconds (w : workload) =
  let m = w.machine in
  (* Every set-up sample is a chunk of its own. *)
  let setup_calib = Calib.create () in
  let setup_sample f r =
    let chunk = Calib.chunk setup_calib in
    let s = f r in
    Calib.cut setup_calib;
    (s, chunk)
  in
  let setup_metric samples =
    scaled setup_calib (fun scale ->
        [
          Report.metric "setup_s" "s"
            (Pct.median (Array.map (fun (s, c) -> s *. scale c) samples));
        ])
  in
  match w.kind with
  | Compile { min_passes } | Exec { min_passes } ->
    let refs, setup =
      oracle_pass ~setup:(setup_sample (cold_start ~tool m w.units.(0))) m w.units
    in
    let timed =
      (match w.kind with Exec _ -> timed_exec | Compile _ | Serve _ -> timed_compile)
        ~rng ~seconds ~min_passes ~tail_p:w.tail_p m w.units refs
    in
    setup_metric setup @ timed
    @ (Report.metric "peak_rss_mb" "MB" (peak_rss_mb "self") :: quality refs)
  | Serve { min_passes } ->
    let prefill, stream = service_requests ~rng ~seed w in
    let prefilled = prefill_journal ~tool m prefill in
    let refs, setup =
      oracle_pass ~setup:(setup_sample (fun _ -> boot_seconds ~tool m)) m w.units
    in
    ignore (check_served m refs w prefill prefilled);
    let expected = expected_bodies m refs w stream in
    let n = Array.length stream in
    (* Every pass answers the whole stream on a fresh server over a copy
       of the prefilled journal, so every pass meets the same cache and
       journal. Round trips are pooled over the passes; throughput is
       requests over the time the blocks took, with two requests in
       flight. *)
    let calib = Calib.create () in
    let rtts = ref [] and blocks = ref [] and rss = ref [] in
    let passes =
      run_passes ~rng ~seconds ~min_passes 1 (fun _ _ ->
          rm_rf "pass";
          copy_dir "store" "pass";
          let session = serve_stream ~calib ~store_dir:"pass" ~tool m stream in
          check_bodies expected session.stream;
          rtts := Array.map (fun (s : served) -> (s.rtt_ns, s.chunk)) session.stream :: !rtts;
          blocks := session.blocks :: !blocks;
          rss := session.server_rss_mb :: !rss)
    in
    Printf.printf "# %d passes over %d requests in blocks of %d, tail = p%d\n" passes n
      serve_block w.tail_p;
    let rtts = Array.concat !rtts and blocks = Array.concat !blocks in
    let work = Array.fold_left (fun acc (_, k) -> acc + k) 0 expected in
    let timings scale =
      let ms (ns, c) = float_of_int ns *. scale c /. 1e6 in
      timing_metrics ~tail_p:w.tail_p ~ops:(n * passes) ~work:(work * passes)
        ~busy_s:(Array.fold_left (fun acc b -> acc +. ms b) 0. blocks /. 1e3)
        (Array.map ms rtts)
    in
    setup_metric setup @ scaled calib timings
    @ (Report.metric "peak_rss_mb" "MB" (Pct.median (Array.of_list !rss)) :: quality refs)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let chain_layers =
  [
    "ir_text.parse";
    "passes.dce";
    "liveness";
    "lifetime";
    "binpack.scan";
    "resolution";
    "passes.peephole";
    "lower.emit";
  ]

(* Self time and minor words per layer of a traced pass. The scan's self
   time still holds the liveness and lifetimes it computes itself; the
   probes in its span measured that part, so it moves to their layers. *)
let chain_totals spans =
  let tbl = Spans.totals_by_name spans in
  let get name = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl name) in
  let scan_ns, scan_words = get "binpack.scan" in
  let live_ns, live_words = get "liveness" and life_ns, life_words = get "lifetime" in
  Hashtbl.replace tbl "binpack.scan"
    (scan_ns - live_ns - life_ns, scan_words -. live_words -. life_words);
  tbl

type traced_pass = {
  untraced_ns : int;
  wall_ns : int;
  residual_ns : int;
  layers : (string, int * float) Hashtbl.t;  (** self ns, minor words *)
  counts : counts;
}

(* Alternates an untraced pass and a traced pass over the same order
   until [seconds] are used; every traced unit must emit the bytes the
   untraced pipeline emitted. Leaves the last traced pass's spans in
   [trace_file]. *)
let traced_chain ~rng ~seconds ~trace_file m units refs =
  let n = Array.length units in
  let spans = Spans.create (n * 16) in
  let passes = ref [] in
  ignore
    (run_passes ~rng ~seconds ~min_passes:3 n (fun _ order ->
         let untraced_ns = ref 0 in
         Array.iter
           (fun i ->
             let t0 = now_ns () in
             let code = compile_unit m units.(i).Inputs.source in
             untraced_ns := !untraced_ns + (now_ns () - t0);
             check (Digest.bytes code = refs.(i).code)
               (units.(i).name ^ ": timed compile emitted different bytes"))
           order;
         Spans.clear spans;
         let counts = fresh_counts () in
         Array.iter
           (fun i ->
             let code = traced_unit spans counts m ~unit_id:i units.(i).source in
             check (Digest.bytes code = refs.(i).code)
               (units.(i).name ^ ": traced chain emitted different bytes"))
           order;
         let wall_ns, residual_ns =
           List.fold_left
             (fun (w, r) (_, wall, res) -> (w + wall, r + res))
             (0, 0) (Spans.roots spans)
         in
         passes :=
           {
             untraced_ns = !untraced_ns;
             wall_ns;
             residual_ns;
             layers = chain_totals spans;
             counts;
           }
           :: !passes));
  write_file trace_file (Spans.to_json spans);
  let passes = Array.of_list !passes in
  let med f = Pct.median (Array.map f passes) in
  let get name p = Option.value ~default:(0, 0.) (Hashtbl.find_opt p.layers name) in
  let self name p = fst (get name p) in
  let share name p = float_of_int (self name p) /. float_of_int p.wall_ns in
  let mb_per_s bytes name p = float_of_int bytes /. seconds_of_ns (self name p) /. 1e6 in
  let c = passes.(0).counts in
  let count name v = Report.metric name "count" (float_of_int v) in
  let untraced = med (fun p -> float_of_int p.untraced_ns) in
  let traced = med (fun p -> float_of_int p.wall_ns) in
  Printf.printf "# %d untraced + %d traced passes over %d units\n"
    (Array.length passes) (Array.length passes) n;
  [ Report.metric "chain.wall_s" "s" (traced /. 1e9) ]
  @ List.concat_map
      (fun name ->
        [
          Report.metric (name ^ ".self_s") "s"
            (med (fun p -> seconds_of_ns (self name p)));
          Report.metric (name ^ ".share") "ratio" (med (share name));
        ])
      chain_layers
  @ List.map
      (fun name ->
        Report.metric (name ^ ".minor_words") "words" (med (fun p -> snd (get name p))))
      [ "liveness"; "lifetime"; "binpack.scan"; "resolution" ]
  @ [
      Report.metric "ir_text.parse.mb_per_s" "MB/s"
        (med (mb_per_s c.source_bytes "ir_text.parse"));
      Report.metric "lower.emit.mb_per_s" "MB/s"
        (med (mb_per_s c.code_bytes "lower.emit"));
      count "passes.dce.removed" c.dce_removed;
      count "passes.peephole.removed" c.peephole_removed;
      count "binpack.static_spills" c.static_spills;
      count "resolution.instrs" c.resolution_instrs;
      count "resolution.dataflow_rounds" c.dataflow_rounds;
      Report.metric "lower.code_bytes" "bytes" (float_of_int c.code_bytes);
      Report.metric "gc.minor_collections" "count"
        (med (fun p -> float_of_int p.counts.minor_gcs));
      Report.metric "gc.major_collections" "count"
        (med (fun p -> float_of_int p.counts.major_gcs));
      Report.metric "chain.residual_share" "ratio"
        (med (fun p -> float_of_int p.residual_ns /. float_of_int p.wall_ns));
      Report.metric "trace.overhead_share" "ratio" ((traced -. untraced) /. untraced);
    ]

let mean = function
  | [||] -> 0.
  | a -> Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let per_layer ~tool ~rng ~seed ~seconds ~trace_file (w : workload) =
  let m = w.machine in
  let refs, _ = oracle_pass m w.units in
  let chain = traced_chain ~rng ~seconds ~trace_file m w.units refs in
  let prefill, stream = service_requests ~rng ~seed w in
  let prefilled = if prefill = [||] then [||] else prefill_journal ~tool m prefill in
  let prefill_expected = Array.map fst (check_served m refs w prefill prefilled) in
  let session = serve_stream ~tool m stream in
  let stream_expected = Array.map fst (check_served m refs w stream session.stream) in
  let served = session.stream in
  let wall_us hit =
    Array.of_list
      (List.filter_map
         (fun s -> if s.hit = hit then Some (float_of_int s.wall_us) else None)
         (Array.to_list served))
  in
  let transport_us =
    Array.map (fun s -> (float_of_int s.rtt_ns /. 1e3) -. float_of_int s.wall_us) served
  in
  let layers, component_ns, handle_ns =
    service_replay m
      ~prefill:(Array.combine prefill prefill_expected)
      ~stream:(Array.combine stream stream_expected)
  in
  let seconds_in tbl name =
    seconds_of_ns (Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  chain
  @ List.map
      (fun name -> Report.metric (name ^ ".self_s") "s" (seconds_in oracle_ns name))
      [ "precheck"; "verify"; "interp"; "exec.native" ]
  @ [
      Report.metric "binpack.spill_dyn_frac" "ratio"
        (let sum f = Array.fold_left (fun a r -> a + f r) 0 refs in
         float_of_int (sum (fun r -> r.post_spill)) /. float_of_int (sum (fun r -> r.post_dyn)));
      Report.metric "service.hit_us.mean" "us" (mean (wall_us true));
      Report.metric "service.cold_us.mean" "us" (mean (wall_us false));
      Report.metric "mux.transport_us.mean" "us" (mean transport_us);
      Report.metric "cache.hit_ratio" "ratio"
        (float_of_int session.hits /. float_of_int (session.hits + session.misses));
      Report.metric "store.warm_loaded" "count" (float_of_int session.warm_loaded);
      Report.metric "store.journal_bytes" "bytes" (float_of_int session.journal_bytes);
    ]
  @ List.map
      (fun name -> Report.metric (name ^ ".self_s") "s" (seconds_in layers name))
      [
        "ir_text.print";
        "cachekey.digest";
        "cache.find";
        "cache.add";
        "allocator.pipeline";
        "store.append";
        "store.open";
      ]
  @ [
      Report.metric "service.handle.self_s" "s" (seconds_of_ns handle_ns);
      Report.metric "service.residual_share" "ratio"
        (float_of_int (handle_ns - component_ns) /. float_of_int handle_ns);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      parse ((flag, value) :: acc) rest
    | x :: _ -> usage (Printf.sprintf "unexpected argument %S" x)
  in
  let opts = parse [] args in
  let get flag =
    match List.assoc_opt flag opts with
    | Some v -> v
    | None -> usage ("missing " ^ flag)
  in
  let int_flag flag =
    match int_of_string_opt (get flag) with
    | Some n -> n
    | None -> usage (Printf.sprintf "%s expects an integer" flag)
  in
  let name = get "--workload" in
  let seed = int_flag "--seed" in
  let seconds = float_of_int (int_flag "--seconds") in
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> usage "--trace expects 0 or 1"
  in
  if seconds < 1. then usage "--seconds must be at least 1";
  let w = workload name in
  if not (Lsra_native.Exec.available ()) then begin
    prerr_endline "perfbench: native execution is unavailable on this host";
    exit 2
  end;
  (* This executable is <build>/default/perfbench/suite.exe. Scratch
     files and traces go to <build>/perfbench, which dune leaves alone. *)
  let context = Filename.dirname (Filename.dirname Sys.executable_name) in
  let tool = Filename.concat context "bin/lsra_tool.exe" in
  if not (Sys.file_exists tool) then usage ("lsra_tool not built at " ^ tool);
  let root = Sys.getcwd () in
  let base = Filename.concat (Filename.dirname context) "perfbench" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run_dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  Sys.chdir run_dir;
  at_exit (fun () ->
      kill_children ();
      Sys.chdir root;
      rm_rf run_dir);
  (* A server that dies mid-write must surface as an error, and a run
     stopped from outside must still stop the servers it started. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 4)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let trace_file =
    Filename.concat base (Printf.sprintf "trace-%s-%d.json" name seed)
  in
  let rng = Inputs.rng ~seed ~salt:1 in
  let metrics =
    try
      if trace then per_layer ~tool ~rng ~seed ~seconds ~trace_file w
      else end_to_end ~tool ~rng ~seed ~seconds w
    with
    | Wrong -> []
    | e ->
      check false ("run aborted: " ^ Printexc.to_string e);
      []
  in
  List.iter (fun m -> print_endline (Report.human_line ~workload:name m)) metrics;
  let correct = !failed = 0 && metrics <> [] in
  print_endline
    (Report.result_json ~correct ~attempted:(max 1 !attempted)
       ~failed:(if correct then 0 else max 1 !failed)
       metrics);
  if trace then Printf.eprintf "perfbench: spans in %s\n" trace_file;
  exit (if correct then 0 else 4)
