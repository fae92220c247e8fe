(* The one serving loop, for a Unix socket and for stdin/stdout alike
   (see mux.mli). *)

type istate =
  | Idle  (* awaiting a header line *)
  | Body of { req : Protocol.req option; need : int }
      (* [need] body bytes; [None] is a rejected request's body, skipped *)

(* A connection reads [rfd] and writes [wfd]: the same descriptor for a
   socket, stdin and stdout for stdio. The mux closes only the sockets
   it accepted ([owned] until closed); stdio stays open, and blocking,
   for its caller. *)
type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  mutable owned : bool;
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (* valid bytes in [rbuf] *)
  mutable rpos : int;  (* consumed prefix of [rbuf] *)
  mutable scan : int;  (* [rbuf] before here holds no '\n' past [rpos] *)
  mutable state : istate;
  (* Write queue as a [whead, wtail) window over [wbuf]: each select
     round writes straight out of the buffer at [whead] — no copy of the
     queued suffix per attempt (a Buffer here meant Buffer.contents
     copied the whole backlog every round: quadratic on a slow
     client). The window compacts to offset 0 on full drain, so a
     long-lived connection reuses the same backing bytes. *)
  mutable wbuf : Bytes.t;
  mutable whead : int;  (* start of the unwritten window *)
  mutable wtail : int;  (* end of the valid bytes *)
  mutable severity : int;
  mutable eof : bool;  (* read side done (EOF or reset) *)
  mutable dead : bool;  (* fully abandoned; fd closed *)
}

type t = {
  svc : Service.t;
  capacity : int;  (* batch size that forces a flush *)
  jobs : int;  (* domain fan-out per batch *)
  lsock : Unix.file_descr option;
  max_clients : int;
  mutable conns : conn list;
  (* The one request queue: every connection's completed requests,
     newest first, each with the connection it answers to. *)
  mutable batch : (conn * Service.request) list;
  mutable quit : bool;
  mutable severity : int;
}

let make_conn ~owned rfd wfd =
  {
    rfd;
    wfd;
    owned;
    rbuf = Bytes.create 8192;
    rlen = 0;
    rpos = 0;
    scan = 0;
    state = Idle;
    wbuf = Bytes.create 1024;
    whead = 0;
    wtail = 0;
    severity = 0;
    eof = false;
    dead = false;
  }

let close_conn t c =
  if c.owned then begin
    c.owned <- false;
    (try Unix.close c.rfd with Unix.Unix_error _ -> ())
  end;
  (* Per-connection severity, aggregated explicitly at close: one
     client's verifier reject or spot-check divergence raises the
     server's exit code without ever leaking into another connection's
     session. *)
  t.severity <- max t.severity c.severity

let mark_dead t c =
  c.dead <- true;
  c.whead <- 0;
  c.wtail <- 0;
  close_conn t c

let wq_len c = c.wtail - c.whead

let wq_add c s =
  let n = String.length s in
  if c.wtail + n > Bytes.length c.wbuf then begin
    (* Compact the drained prefix down first; grow only if the window
       still does not fit. *)
    if c.whead > 0 then begin
      Bytes.blit c.wbuf c.whead c.wbuf 0 (c.wtail - c.whead);
      c.wtail <- c.wtail - c.whead;
      c.whead <- 0
    end;
    if c.wtail + n > Bytes.length c.wbuf then begin
      let cap = ref (max 1024 (2 * Bytes.length c.wbuf)) in
      while c.wtail + n > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit c.wbuf 0 bigger 0 c.wtail;
      c.wbuf <- bigger
    end
  end;
  Bytes.blit_string s 0 c.wbuf c.wtail n;
  c.wtail <- c.wtail + n

let queue_frame c line payload =
  if not c.dead then wq_add c (Protocol.render_frame line payload)

let try_write t c =
  if (not c.dead) && wq_len c > 0 then begin
    match Unix.write c.wfd c.wbuf c.whead (wq_len c) with
    | n ->
      c.whead <- c.whead + n;
      if c.whead = c.wtail then begin
        c.whead <- 0;
        c.wtail <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> mark_dead t c  (* EPIPE & friends *)
  end

let answer c id = function
  | Ok (resp : Service.response) ->
    queue_frame c (Protocol.render_ok resp) (Some resp.Service.output)
  | Error e ->
    let code = Protocol.err_code_of_exn e in
    (* Bad input (code 1) is the client's problem; verifier rejects and
       spot-check divergences are ours. *)
    c.severity <- max c.severity (if code = 1 then 0 else code);
    queue_frame c
      (Protocol.render_err ~id ~code (Protocol.err_message_of_exn e))
      None

(* Serve the batch over the domain pool and answer each request on its
   own connection, in submission order. Requests are independent: an
   exception stays in its own slot, so one malformed request cannot
   poison the batch (map_array would re-raise and abandon the other
   results). Source length stands in for compile cost, so the largest
   requests are dealt first. *)
let flush_batch t =
  if t.batch <> [] then begin
    let batch = Array.of_list (List.rev t.batch) in
    t.batch <- [];
    let results =
      Lsra.Parallel.map_array ~jobs:t.jobs
        ~weight:(fun (_, req) -> String.length req.Service.source)
        batch
        (fun (c, (req : Service.request)) ->
          ( c,
            req.req_id,
            match Service.handle t.svc req with
            | resp -> Ok resp
            | exception e -> Error e ))
    in
    (* The batch boundary is the store's durability point: one fsync per
       shard covers every append the batch produced (see Store.sync_mode;
       a no-op in the default Never mode). *)
    Service.sync_store t.svc;
    Array.iter (fun (c, id, result) -> answer c id result) results
  end

let submit_req t c (r : Protocol.req) body =
  let req =
    Service.request ~algo:r.algo ~passes:r.passes ?deadline:r.deadline
      ~id:r.id body
  in
  t.batch <- (c, req) :: t.batch;
  if List.compare_length_with t.batch t.capacity >= 0 then flush_batch t

(* ------------------------------------------------------------------ *)
(* Incremental reading and parsing                                     *)

let ensure_read_capacity c =
  if c.rlen = Bytes.length c.rbuf || c.rpos = c.rlen then begin
    (* Slide the unconsumed suffix down before growing. *)
    if c.rpos > 0 then begin
      Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
      c.rlen <- c.rlen - c.rpos;
      c.scan <- max 0 (c.scan - c.rpos);
      c.rpos <- 0
    end;
    if c.rlen = Bytes.length c.rbuf then begin
      let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 bigger 0 c.rlen;
      c.rbuf <- bigger
    end
  end

let read_chunk c =
  ensure_read_capacity c;
  match Unix.read c.rfd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> c.eof <- true
  | n -> c.rlen <- c.rlen + n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.eof <- true  (* reset: same as EOF *)

(* The next '\n' within [Protocol.max_header] bytes of [rpos]. Each
   byte is scanned once, however the line arrives. *)
let find_nl c =
  let limit = min c.rlen (c.rpos + Protocol.max_header + 1) in
  let rec go i =
    if i >= limit then begin
      c.scan <- i;
      None
    end
    else if Bytes.get c.rbuf i = '\n' then Some i
    else go (i + 1)
  in
  go (max c.scan c.rpos)

let take_line c nl =
  let s = Bytes.sub_string c.rbuf c.rpos (nl - c.rpos) in
  c.rpos <- nl + 1;
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* Discard the rest of a connection's input (protocol violation or
   disconnect mid-frame): stop reading, drain what we owe, then close. *)
let poison c =
  c.rpos <- c.rlen;
  c.state <- Idle;
  c.eof <- true

let reject c id msg = queue_frame c (Protocol.render_err ~id ~code:1 msg) None

let rec parse_conn t c =
  if c.dead || t.quit then ()
  else
    match c.state with
    | Idle -> (
      match find_nl c with
      | None ->
        if c.rlen - c.rpos > Protocol.max_header then begin
          reject c "-"
            (Printf.sprintf "header line exceeds %d bytes"
               Protocol.max_header);
          poison c
        end
        else if c.eof then
          (* An unterminated last line is not a frame: the client
             vanished mid-header. Drop it and let the close path run. *)
          c.rpos <- c.rlen
      | Some nl -> (
        let line = take_line c nl in
        if line = "" then parse_conn t c
        else
          match Protocol.parse_header line with
          | Error { id; body_len = Some need; msg } ->
            reject c id msg;
            c.state <- Body { req = None; need };
            parse_conn t c
          | Error { id; body_len = None; msg } ->
            reject c id msg;
            poison c
          | Ok (Protocol.H_req r) ->
            c.state <- Body { req = Some r; need = r.body_len };
            parse_conn t c
          | Ok Protocol.H_flush ->
            flush_batch t;
            parse_conn t c
          | Ok (Protocol.H_stats id) ->
            flush_batch t;
            queue_frame c
              (Protocol.render_stats ~id (Service.counters t.svc))
              None;
            parse_conn t c
          | Ok Protocol.H_quit -> t.quit <- true))
    | Body { req; need } ->
      if c.rlen - c.rpos >= need then begin
        let start = c.rpos in
        c.rpos <- c.rpos + need;
        c.state <- Idle;
        Option.iter
          (fun r -> submit_req t c r (Bytes.sub_string c.rbuf start need))
          req;
        parse_conn t c
      end
      else if c.eof then begin
        Option.iter
          (fun (r : Protocol.req) ->
            reject c r.id
              "end of input inside a REQ frame (len= body truncated)")
          req;
        poison c
      end

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)

(* EINTR is a retry, ECONNABORTED is a client that gave up while
   queued — neither may kill the accept loop (they used to). EAGAIN
   ends the sweep: the listening socket is non-blocking, so a readiness
   event is drained to empty every time. *)
let accept_clients t lsock =
  let rec go () =
    if (not t.quit) && List.length t.conns < t.max_clients then
      match Unix.accept lsock with
      | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <- make_conn ~owned:true fd fd :: t.conns;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (ECONNABORTED, _, _) -> go ()
  in
  go ()

let reap t =
  let keep, drop =
    List.partition
      (fun c -> (not c.dead) && not (c.eof && wq_len c = 0))
      t.conns
  in
  List.iter (fun c -> close_conn t c) drop;
  t.conns <- keep

let drained_all t = List.for_all (fun c -> c.dead || wq_len c = 0) t.conns

(* select(2) cannot watch a file descriptor numbered FD_SETSIZE or
   higher: once that many clients (plus the listener and stdio) are
   connected, further accepts would produce descriptors select silently
   cannot monitor — connections that hang forever, not a clean error.
   POSIX fixes FD_SETSIZE at 1024 on every platform this builds on, so
   reject impossible limits at startup rather than degrade at load. *)
let fd_setsize = 1024

(* Serve until QUIT, or until there is no listener and no connection
   left; pending responses are drained first. *)
let serve ?(capacity = 64) ?(jobs = 1) svc ?lsock ~max_clients conns =
  let t =
    {
      svc;
      capacity = max 1 capacity;
      jobs;
      lsock;
      max_clients = max 1 max_clients;
      conns;
      batch = [];
      quit = false;
      severity = 0;
    }
  in
  (* A client that hangs up right before we answer must surface as
     EPIPE on the write (handled per connection), not as a SIGPIPE that
     kills the whole server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec loop () =
    let finished =
      (t.quit && drained_all t) || (Option.is_none t.lsock && t.conns = [])
    in
    if not finished then begin
      let reads =
        if t.quit then []
        else
          (match t.lsock with
          | Some l when List.length t.conns < t.max_clients -> [ l ]
          | _ -> [])
          @ List.filter_map
              (fun c -> if c.dead || c.eof then None else Some c.rfd)
              t.conns
      in
      let writes =
        List.filter_map
          (fun c -> if (not c.dead) && wq_len c > 0 then Some c.wfd else None)
          t.conns
      in
      (if reads = [] && writes = [] then
         (* All connections quiesced mid-shutdown or at the client cap
            with nothing to do: breathe instead of spinning. *)
         ignore (Unix.select [] [] [] 0.05)
       else
         match Unix.select reads writes [] (-1.) with
         | exception Unix.Unix_error (EINTR, _, _) -> ()
         | rs, ws, _ ->
           Option.iter
             (fun l -> if List.memq l rs then accept_clients t l)
             t.lsock;
           List.iter
             (fun c ->
               if List.memq c.rfd rs then begin
                 read_chunk c;
                 parse_conn t c
               end)
             t.conns;
           (* Batch boundary: everything that arrived this round — from
              every connection — is one batch. *)
           flush_batch t;
           List.iter
             (fun c ->
               if List.memq c.wfd ws || wq_len c > 0 then try_write t c)
             t.conns;
           reap t);
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  t.severity

let serve_fds ?capacity ?jobs svc ~input ~output =
  serve ?capacity ?jobs svc ~max_clients:1
    [ make_conn ~owned:false input output ]

let serve_socket ?(max_clients = 64) ?capacity ?jobs svc path =
  if max_clients >= fd_setsize then
    invalid_arg
      (Printf.sprintf
         "Mux.serve_socket: max_clients %d is not serveable — select(2) \
          cannot watch more than FD_SETSIZE (%d) descriptors; use %d or \
          fewer"
         max_clients fd_setsize (fd_setsize - 1));
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      Unix.set_nonblock sock;
      serve ?capacity ?jobs svc ~lsock:sock ~max_clients [])
