(** [Unix.select]-based serving loop: {!Protocol} frames over a Unix
    socket or over stdin/stdout.

    One event loop owns the listening socket (socket mode) and every
    connection; stdio is served as a single connection. Frames are
    parsed incrementally out of per-connection read buffers (partial
    headers, partial bodies and many-frames-per-read all work), and
    completed requests from {e every} connection join one batch, each
    together with the connection that sent it — so independent clients'
    concurrent requests coalesce into a single domain-pool batch. The
    batch boundary is the event-loop round: after each readiness sweep
    everything that arrived is served as one batch (FLUSH, STATS and
    reaching [capacity] force earlier ones).

    A batch fans its requests over [jobs] domains with
    {!Lsra.Parallel.map_array}, largest source first. Each request is
    served independently by {!Service.handle}, and answers are written
    in submission order, each to its own connection, so a batch is
    byte-identical to serving the same requests one at a time:
    parallelism changes only which domain runs which request. A request
    whose handling raises answers [ERR] in its own slot; the rest of the
    batch is unaffected. {!Service.sync_store} runs at every batch
    boundary.

    Robustness properties, the same on every connection:
    - Input is bounded by {!Protocol.max_header} and {!Protocol.max_body},
      so no client can make the server buffer without limit or rescan a
      line; a rejected [REQ] costs one [ERR] frame (see {!Protocol}).
    - A reader that goes away surfaces as [EPIPE] on its connection, not
      as a [SIGPIPE] that kills the server.
    - [EINTR] on accept retries and [ECONNABORTED] skips the aborted
      client; neither kills the server.
    - A client disconnecting mid-frame poisons only its own connection;
      every other client is unaffected.
    - Severity (worst non-input [ERR] code) is tracked per connection
      and aggregated explicitly when the connection closes, so one
      client's verifier reject can't leak into another's session — but
      still decides the server's own exit.

    Every entry point returns the worst severity seen across its
    connections, following the repository's exit-code contract: [0]
    when every request either succeeded or was merely bad input, [3]
    when the abstract verifier rejected at least one cold allocation,
    [4] when a spot-check found a divergence.

    [capacity] bounds the batch (default 64); [jobs] is the domain
    fan-out per batch (default 1 = sequential, 0 = pick for this
    host). *)

(** [serve_fds svc ~input ~output] serves one connection that reads
    [input] and writes [output] until [QUIT], end of input, or a write
    error on [output] (its reader went away). Pending responses are
    written first. Neither descriptor is closed or switched to
    non-blocking mode: they belong to the caller (stdin/stdout for
    [lsra_tool serve]). *)
val serve_fds :
  ?capacity:int ->
  ?jobs:int ->
  Service.t ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  int

(** POSIX [FD_SETSIZE] (1024): [select(2)] cannot watch a descriptor
    numbered this or higher. *)
val fd_setsize : int

(** [serve_socket ?max_clients svc path] binds a Unix-domain socket at
    [path] (replacing any stale socket file) and serves up to
    [max_clients] (default 64) concurrent connections until a client
    sends [QUIT]; pending responses are drained before returning. The
    socket file is removed on the way out, including on exceptions.

    Raises [Invalid_argument] when [max_clients >= fd_setsize]:
    [select(2)] cannot watch descriptors past that limit, so such a
    configuration would not fail cleanly under load — it would accept
    connections it can never service. The check runs before [path] is
    touched. *)
val serve_socket :
  ?max_clients:int -> ?capacity:int -> ?jobs:int -> Service.t -> string -> int
