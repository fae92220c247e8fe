open Lsra_ir

(* Work items are independent: nothing in the allocation path shares
   mutable state across functions (instruction uids come from an atomic
   counter). Work is handed out through an atomic cursor, one item at a
   time, so a domain stuck on a large item does not hold back the others;
   with a [weight] cost model the cursor walks the items largest-first,
   which keeps a `twldrv`-sized function from landing on a domain after
   the others have drained the queue.

   Domains are expensive to spawn and each brings its own minor heap, so
   the pool is {e persistent}: helpers are spawned once, parked on a
   condition variable between batches, and reused by every [map_array]
   call in the process ([fold_stats] batches, the service's request
   batches, bench). [teardown] (also registered [at_exit]) joins them so tests and
   one-shot tools exit cleanly.

   Exceptions: a worker never lets one escape into the pool loop. Each
   batch body records the first exception it hit (with backtrace) in an
   atomic slot and parks the cursor past the end so the other domains
   drain quickly; after the batch barrier the first recorded error is
   re-raised — no leaked domains, no lost exceptions. *)

let resolve_jobs jobs n =
  let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  min jobs (max 1 n)

module Pool = struct
  type t = {
    mutable helpers : unit Domain.t array;
    m : Mutex.t;
    work : Condition.t;
    finished : Condition.t;
    mutable epoch : int; (* bumped per batch; helpers wait for a bump *)
    mutable job : (unit -> unit) option; (* the current batch's body *)
    mutable tickets : int; (* helpers still allowed to join this batch *)
    mutable busy : int; (* helpers currently inside the body *)
    mutable stop : bool;
    sub : Mutex.t; (* serialises whole batches *)
  }

  (* Helpers park here between batches. A helper that wakes into an
     already-drained batch (no tickets left) just re-arms; a helper
     spawned mid-batch takes a ticket and joins it. The batch body is
     exception-free by construction (see [map_array]), but a stray raise
     must not kill the worker loop. *)
  let worker_loop t =
    let seen = ref 0 in
    let continue = ref true in
    Mutex.lock t.m;
    while !continue do
      while (not t.stop) && t.epoch = !seen do
        Condition.wait t.work t.m
      done;
      if t.stop then begin
        Mutex.unlock t.m;
        continue := false
      end
      else begin
        seen := t.epoch;
        if t.tickets > 0 then begin
          t.tickets <- t.tickets - 1;
          t.busy <- t.busy + 1;
          let body = t.job in
          Mutex.unlock t.m;
          (match body with
          | Some f -> ( try f () with _ -> ())
          | None -> ());
          Mutex.lock t.m;
          t.busy <- t.busy - 1;
          if t.busy = 0 && t.tickets = 0 then Condition.broadcast t.finished
        end
      end
    done

  let spawn_helper t = Domain.spawn (fun () -> worker_loop t)

  let create ~helpers =
    let t =
      {
        helpers = [||];
        m = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        epoch = 0;
        job = None;
        tickets = 0;
        busy = 0;
        stop = false;
        sub = Mutex.create ();
      }
    in
    t.helpers <- Array.init (max 0 helpers) (fun _ -> spawn_helper t);
    t

  let size t = Array.length t.helpers

  let grow t helpers =
    if helpers > size t then
      t.helpers <-
        Array.append t.helpers
          (Array.init (helpers - size t) (fun _ -> spawn_helper t))

  (* Run [body] on up to [participants] helpers plus the calling domain;
     returns once every participant has left the body. The lock pair
     around the completion wait gives the caller a happens-before edge
     over all helper writes (result slots included). *)
  let run t ~participants body =
    Mutex.lock t.sub;
    Mutex.lock t.m;
    t.job <- Some body;
    t.tickets <- min participants (size t);
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (try body () with _ -> ());
    Mutex.lock t.m;
    while t.busy > 0 || t.tickets > 0 do
      Condition.wait t.finished t.m
    done;
    t.job <- None;
    Mutex.unlock t.m;
    Mutex.unlock t.sub

  let shutdown t =
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    Array.iter Domain.join t.helpers;
    t.helpers <- [||]
end

(* The process-wide pool, created on first parallel batch and grown to
   the largest helper count ever requested. *)
let global : Pool.t option ref = ref None
let global_m = Mutex.create ()

let get_pool ~helpers =
  Mutex.lock global_m;
  let p =
    match !global with
    | Some p ->
      Pool.grow p helpers;
      p
    | None ->
      let p = Pool.create ~helpers in
      global := Some p;
      p
  in
  Mutex.unlock global_m;
  p

let teardown () =
  Mutex.lock global_m;
  (match !global with
  | Some p ->
    global := None;
    Pool.shutdown p
  | None -> ());
  Mutex.unlock global_m

(* Parked helpers would otherwise keep a finished process alive. *)
let () = at_exit teardown

let map_array ?(jobs = 1) ?weight items f =
  let n = Array.length items in
  let jobs = resolve_jobs jobs n in
  if jobs <= 1 then Array.map f items
  else begin
    (* Largest-first schedule when a cost model is given; results always
       land at their item's index, so the output — and anything folded
       over it — is independent of both the schedule and domain timing. *)
    let order =
      match weight with
      | None -> None
      | Some w ->
        let ws = Array.map w items in
        let idx = Array.init n (fun i -> i) in
        Array.sort
          (fun a b ->
            match Int.compare ws.(b) ws.(a) with
            | 0 -> Int.compare a b
            | c -> c)
          idx;
        Some idx
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let body () =
      try
        let running = ref true in
        while !running do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then running := false
          else
            let idx = match order with None -> i | Some o -> o.(i) in
            results.(idx) <- Some (f items.(idx))
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        (* Stop handing out work: the whole map is aborting anyway. *)
        Atomic.set next n;
        ignore (Atomic.compare_and_set error None (Some (e, bt)))
    in
    let pool = get_pool ~helpers:(jobs - 1) in
    Pool.run pool ~participants:(jobs - 1) body;
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function
          | Some r -> r
          | None -> invalid_arg "Parallel.map_array: unfilled slot")
        results
  end

let fold_stats ?(jobs = 1) prog pass =
  let funcs =
    Array.of_list (List.mapi (fun i (_, f) -> (i, f)) (Program.funcs prog))
  in
  let per_func =
    map_array ~jobs
      ~weight:(fun (_, f) -> Func.n_instrs f)
      funcs
      (fun (i, f) -> pass i f)
  in
  let total = Stats.create () in
  Array.iter (fun s -> Stats.add ~into:total s) per_func;
  total
