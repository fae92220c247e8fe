(** The newline-framed textual-IR wire protocol.

    Client → server frames:
    {v
    REQ <id> [algo=<name>] [passes=<spec>] [deadline-ms=<float>] len=<bytes>
    <exactly len bytes of textual IR>
    FLUSH
    STATS <id>
    QUIT
    v}
    A [REQ] header is followed by exactly [len=] body bytes, so the
    body may contain any line at all. A [REQ] the server rejects (an
    unknown option, a malformed id) is answered with [ERR <id> 1] and
    its body skipped; one whose body cannot be delimited (no usable
    [len=], or one over {!max_body}) is answered the same way, and the
    rest of that connection's input is discarded. A header line longer
    than {!max_header} bytes gets [ERR - 1], and the rest of the
    connection's input is discarded too. An unterminated line at end
    of input is not a frame.

    [FLUSH] processes the pending batch and writes the responses in
    submission order; [STATS] flushes, then reports the service
    counters; [QUIT] flushes and shuts the server down. End of input
    closes the connection after its requests are answered. The bounded
    queue also flushes itself when full, and the server flushes
    whatever has arrived across {e all} connections at the end of
    every event-loop round.

    Server → client frames:
    {v
    OK <id> cache=hit|cold [downgraded-to=<short>] wall-us=<int> len=<bytes>
    <exactly len bytes: the allocated program, textual IR>
    ERR <id> <code> <message>
    STATS <id> requests=<n> hits=<n> misses=<n> evictions=<n> entries=<n> bytes=<n> downgrades=<n> spot-checks=<n> shards=<n> warm-loaded=<n>
    v}
    Response bodies are always length-prefixed (the payload is
    normalised to end with exactly one newline, covered by [len=]).
    [ERR] codes follow the repository's exit-code contract: 1 = bad
    input (parse/malformed/rejected), 3 = the abstract verifier rejected
    the allocation, 4 = a spot-check found a divergence. *)

type req = {
  id : string;
  algo : Lsra.Allocator.algorithm;
  passes : Lsra.Passes.t list;
  deadline : float option;  (** seconds *)
  body_len : int;  (** the body is exactly this many bytes *)
}

type header = H_req of req | H_flush | H_stats of string | H_quit

(** A header line that opens no servable frame: the server answers
    [ERR <id> 1 <msg>] ([id] is ["-"] when the line carries no valid
    request id), then skips [body_len] bytes — [Some 0] for a line
    without a body — or, when [body_len] is [None], discards the rest of
    the connection's input, since the frame's end cannot be found. *)
type rejection = { id : string; body_len : int option; msg : string }

(** The longest header line, in bytes before its newline, a server
    reads. *)
val max_header : int

(** The largest [len=] a [REQ] may carry: a header cannot commit the
    server to buffering more than this. *)
val max_body : int

(** Parse one header line (the line that opens a frame). *)
val parse_header : string -> (header, rejection) result

(** The [OK] header line {e without} the [len=] field or trailing
    newline — {!render_frame} appends both when given the payload. *)
val render_ok : Service.response -> string

val render_err : id:string -> code:int -> string -> string
val render_stats : id:string -> Service.service_counters -> string

(** [render_frame line payload] is the complete wire rendering of one
    frame: [line] with [ len=<bytes>] appended when [payload] is
    [Some _], the newline, and the (normalised) payload bytes. *)
val render_frame : string -> string option -> string

(** Map an exception raised while serving a request to its [ERR] code:
    4 for {!Service.Spot_check_failed}, 3 for [Lsra.Verify.Mismatch],
    1 otherwise (parse errors, malformed programs, precheck rejects). *)
val err_code_of_exn : exn -> int

val err_message_of_exn : exn -> string

(** {2 Client side}

    Reply parsing for socket clients (the [bench service --clients]
    replay and the test suite). *)

type reply =
  | R_ok of {
      id : string;
      hit : bool;
      downgraded_to : string option;
      wall_us : int;
      body_len : int option;
          (** bytes of payload following the header; [None] only for
              pre-length-prefix servers *)
    }
  | R_err of { id : string; code : int; msg : string }
  | R_stats of { id : string; fields : (string * string) list }

(** Parse one server reply header line. *)
val parse_reply : string -> (reply, string) result
