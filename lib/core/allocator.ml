open Lsra_ir

type algorithm =
  | Second_chance of Binpack.options
  | Two_pass
  | Poletto
  | Graph_coloring
  | Optimal of Optimal.options

let default_second_chance = Second_chance Binpack.default_options
let default_optimal = Optimal Optimal.default_options

(* The four heuristic allocators in the order the paper discusses them;
   [all] adds the exact branch-and-bound oracle as the top rung.
   Corpus-wide oracles (verification, differential execution) iterate
   [all] so a new allocator is checked everywhere by adding it here. *)
let heuristics = [ default_second_chance; Two_pass; Poletto; Graph_coloring ]
let all = heuristics @ [ default_optimal ]

let name = function
  | Second_chance _ -> "second-chance binpacking"
  | Two_pass -> "two-pass binpacking"
  | Poletto -> "poletto linear scan"
  | Graph_coloring -> "graph coloring"
  | Optimal _ -> "exact branch-and-bound"

let short_name = function
  | Second_chance _ -> "binpack"
  | Two_pass -> "twopass"
  | Poletto -> "poletto"
  | Graph_coloring -> "gc"
  | Optimal _ -> "optimal"

let of_name = function
  | "binpack" | "second-chance" -> Some default_second_chance
  | "twopass" -> Some Two_pass
  | "poletto" -> Some Poletto
  | "gc" | "coloring" -> Some Graph_coloring
  | "optimal" | "exact" -> Some default_optimal
  | _ -> None

(* The quality ladder, best first: the paper's §4 dial, written once. *)
let ladder =
  [ default_optimal; Graph_coloring; default_second_chance; Two_pass; Poletto ]

let below algorithm =
  let rec after = function
    | [] -> []
    | a :: rest ->
      if short_name a = short_name algorithm then rest else after rest
  in
  after ladder

(* The heuristics' own failures, which the exact allocator's warm start
   skips; any other exception propagates. *)
let failed = function
  | Binpack.Out_of_registers _ | Two_pass.Out_of_registers _
  | Poletto.Out_of_registers _ | Coloring.Coloring_failure _ ->
    true
  | _ -> false

(* The dispatch [run] measures, on [run]'s one liveness solution. The
   exact allocator's rungs and its budget-trip fallback are this same
   dispatch, one rung down, on that same solution. *)
let rec dispatch ?trace ~liveness algorithm machine func =
  match algorithm with
  | Second_chance opts ->
    (* The paper's allocator: the allocate-and-rewrite scan, then
       CFG-edge resolution. *)
    let scanned = Binpack.scan ~opts ?trace ~liveness machine func in
    Stats.timed scanned.Binpack.stats Stats.Resolution (fun () ->
        Resolution.run scanned);
    scanned.Binpack.stats
  | Two_pass -> Two_pass.run ?trace ~liveness machine func
  | Poletto -> Poletto.run ?trace ~liveness machine func
  | Graph_coloring -> Coloring.run ?trace ~liveness machine func
  | Optimal opts -> (
    let rungs = below algorithm in
    let rung a trace f = dispatch ?trace ~liveness a machine f in
    match
      Optimal.run_exact opts trace liveness ~rungs:(List.map rung rungs)
        ~failed machine func
    with
    | stats -> stats
    | exception Optimal.Budget_exceeded _ ->
      (* Degrade like the service's deadline ladder does, and account for
         it the same way: a Downgrade event plus a [downgrades] bump, so a
         fallen-back function can never pose as an exact result. *)
      let next = List.hd rungs in
      Option.iter
        (fun sink ->
          Trace.emit sink
            (Trace.Downgrade
               {
                 req = Func.name func;
                 from_algo = short_name algorithm;
                 to_algo = short_name next;
                 budget = float_of_int opts.Optimal.node_budget;
                 predicted = float_of_int opts.Optimal.node_budget;
               }))
        trace;
      let stats = dispatch ?trace ~liveness next machine func in
      stats.Stats.downgrades <- stats.Stats.downgrades + 1;
      stats)

exception Trace_mismatch of string

let check_trace algorithm fname evs stats =
  let fail what e =
    raise
      (Trace_mismatch
         (Printf.sprintf "%s under %s in '%s': %s" what (short_name algorithm)
            fname e))
  in
  let strict =
    match algorithm with
    | Second_chance _ -> true
    | Two_pass | Poletto | Graph_coloring | Optimal _ -> false
  in
  Result.iter_error (fail "replay") (Trace.replay_check evs stats);
  Result.iter_error (fail "event stream") (Trace.well_formed ~strict evs)

(* The one place an allocation is measured: the clock and the GC
   counters are read once around the liveness solve and the dispatch, so
   the allocators that run others (the exact allocator's rungs and its
   fallback) are counted once. [Gc.quick_stat] reads the calling domain's
   counters, which keeps the attribution right under
   [Parallel.fold_stats]. A traced run then checks its own section of the
   sink, outside the measured window. *)
let run ?trace ?liveness algorithm machine func =
  let mark = Option.fold ~none:0 ~some:Trace.count trace in
  let t0 = Monotonic_clock.now () in
  let g0 = Gc.quick_stat () in
  let liveness, own_solve =
    match liveness with
    | Some l -> (l, None)
    | None ->
      let s = Stats.create () in
      let l =
        Stats.timed s Stats.Liveness (fun () ->
            Lsra_analysis.Liveness.compute func)
      in
      (l, Some s)
  in
  let stats = dispatch ?trace ~liveness algorithm machine func in
  Option.iter (fun s -> Stats.add ~into:stats s) own_solve;
  Stats.record_gc_since stats g0;
  stats.Stats.alloc_time <- Stats.seconds_since t0;
  Option.iter
    (fun t -> check_trace algorithm (Func.name func) (Trace.since t mark) stats)
    trace;
  stats

let run_program ?jobs ?trace ?liveness algorithm machine prog =
  (* A shared trace sink is not domain-safe: force sequential. *)
  let jobs = if trace = None then jobs else Some 1 in
  let take i =
    match liveness with
    | None -> None
    | Some sols ->
      (* Each slot is read by its own function's task only; emptying it
         lets the solution die with that allocation. *)
      let l = sols.(i) in
      sols.(i) <- None;
      l
  in
  Parallel.fold_stats ?jobs prog (fun i f ->
      run ?trace ?liveness:(take i) algorithm machine f)

(* The paper's full pipeline (§3): the pre-allocation passes of
   [passes], allocation, then its post-allocation cleanups — with the
   oracle sandwich around every stage. Verification and the caller's
   [check_each] oracle run after allocation AND again after every
   cleanup pass, so Motion/Peephole/Slots output is held to the same
   standard as the allocator's; a pass list without Peephole really does
   skip it (the flag and the pipeline agree). *)
let pipeline ?(precheck = false) ?(verify = false) ?(passes = Passes.default)
    ?check_each ?jobs ?trace algorithm machine prog =
  if precheck then
    List.iter (fun (_, f) -> Precheck.run machine f) (Program.funcs prog);
  let pre, post = List.partition Passes.is_pre (Passes.normalize passes) in
  let checked pass =
    match check_each with None -> () | Some f -> f pass prog
  in
  let pre_stats = Stats.create () in
  (* DCE's liveness solutions, while DCE is the last pass to have touched
     the program: they are exact for what the allocator sees. *)
  let liveness =
    List.fold_left
      (fun _ pass ->
        let handed =
          match pass with
          | Passes.Dce ->
            Some (snd (Passes.run_dce ~stats:pre_stats ?trace prog))
          | Passes.Copyprop | Passes.Motion | Passes.Peephole | Passes.Slots ->
            ignore (Passes.run_pass ~stats:pre_stats ?trace pass prog);
            None
        in
        checked (Some pass);
        handed)
      None pre
  in
  (* Indexed after the pre-allocation passes, once for every check: the
     verifier matches instructions by uid, so the original must be the
     exact program the allocator saw. *)
  let originals =
    if verify then
      List.map (fun (n, f) -> (n, Verify.index f)) (Program.funcs prog)
    else []
  in
  let stats = run_program ?jobs ?trace ?liveness algorithm machine prog in
  Stats.add ~into:stats pre_stats;
  let verify_all () =
    if verify then
      List.iter
        (fun (n, allocated) ->
          Verify.against machine (List.assoc n originals) ~allocated)
        (Program.funcs prog)
  in
  verify_all ();
  checked None;
  List.iter
    (fun pass ->
      ignore (Passes.run_pass ~stats ?trace pass prog);
      verify_all ();
      checked (Some pass))
    post;
  stats
