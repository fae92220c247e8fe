type req = {
  id : string;
  algo : Lsra.Allocator.algorithm;
  passes : Lsra.Passes.t list;
  deadline : float option;
  body_len : int;
}

type header = H_req of req | H_flush | H_stats of string | H_quit

type rejection = { id : string; body_len : int option; msg : string }

let max_header = 4096
let max_body = 64 * 1024 * 1024

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Request ids are echoed into response headers, which are themselves
   newline-framed and space-separated: confine ids to one token. *)
let valid_id id =
  id <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       id

let kv_of w =
  match String.index_opt w '=' with
  | None -> None
  | Some i ->
    Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))

(* The words after [REQ]: an id, then options. [len=] is read whatever
   else is wrong, since a rejected request's body must still be
   skipped; the last [len=] and the first other error win. *)
let parse_req words =
  let id, opts =
    match words with
    | id :: opts when valid_id id -> (Some id, opts)
    | _ -> (None, words)
  in
  let body_len =
    ref (Error "REQ needs len=<bytes>: its body cannot be delimited")
  and algo = ref Lsra.Allocator.default_second_chance
  and passes = ref Lsra.Passes.default
  and deadline = ref None
  and bad = ref None in
  let fail msg = if Option.is_none !bad then bad := Some msg in
  List.iter
    (fun w ->
      match kv_of w with
      | Some ("len", v) ->
        body_len :=
          (match int_of_string_opt v with
          | Some n when n > max_body ->
            Error
              (Printf.sprintf "len=%d exceeds the %d-byte frame cap" n
                 max_body)
          | Some n when n >= 0 -> Ok n
          | Some _ | None ->
            Error (Printf.sprintf "malformed len %S (expected bytes >= 0)" v))
      | Some ("algo", v) -> (
        match Lsra.Allocator.of_name v with
        | Some a -> algo := a
        | None -> fail (Printf.sprintf "unknown allocator %S" v))
      | Some ("passes", v) -> (
        match Lsra.Passes.parse v with
        | Ok ps -> passes := ps
        | Error m -> fail m)
      | Some ("deadline-ms", v) -> (
        match float_of_string_opt v with
        | Some ms when ms >= 0. -> deadline := Some (ms /. 1e3)
        | Some _ | None -> fail (Printf.sprintf "malformed deadline-ms %S" v))
      | Some (k, _) -> fail (Printf.sprintf "unknown option %S" k)
      | None -> fail (Printf.sprintf "malformed option %S (expected k=v)" w))
    opts;
  let reject body_len msg =
    Error { id = Option.value id ~default:"-"; body_len; msg }
  in
  match (!body_len, id, !bad) with
  | Error msg, _, _ -> reject None msg
  | Ok n, None, _ -> reject (Some n) "REQ needs an id ([A-Za-z0-9._:-]+)"
  | Ok n, Some _, Some msg -> reject (Some n) msg
  | Ok body_len, Some id, None ->
    Ok
      (H_req
         { id; algo = !algo; passes = !passes; deadline = !deadline; body_len })

let parse_header line =
  let reject msg = Error { id = "-"; body_len = Some 0; msg } in
  match split_words line with
  | [ "FLUSH" ] -> Ok H_flush
  | [ "QUIT" ] -> Ok H_quit
  | [ "STATS"; id ] when valid_id id -> Ok (H_stats id)
  | "REQ" :: words -> parse_req words
  | "STATS" :: _ -> reject "STATS needs an id ([A-Za-z0-9._:-]+)"
  | w :: _ -> reject (Printf.sprintf "unknown frame %S" w)
  | [] -> reject "empty header line"

let render_ok (r : Service.response) =
  Printf.sprintf "OK %s cache=%s%s wall-us=%d" r.Service.resp_id
    (if r.Service.cached then "hit" else "cold")
    (match r.Service.downgraded_to with
    | None -> ""
    | Some a -> " downgraded-to=" ^ a)
    (int_of_float (1e6 *. r.Service.elapsed))

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let render_err ~id ~code msg =
  Printf.sprintf "ERR %s %d %s" id code (one_line msg)

let render_stats ~id (c : Service.service_counters) =
  Printf.sprintf
    "STATS %s requests=%d hits=%d misses=%d evictions=%d entries=%d \
     bytes=%d downgrades=%d spot-checks=%d shards=%d warm-loaded=%d \
     memo-hits=%d"
    id c.Service.requests c.Service.cache.Cache.hits
    c.Service.cache.Cache.misses c.Service.cache.Cache.evictions
    c.Service.cache.Cache.entries c.Service.cache.Cache.bytes
    c.Service.downgrades c.Service.spot_checks c.Service.shards
    c.Service.warm_loaded c.Service.memo_hits

(* A payload always ends with exactly one newline on the wire, so the
   advertised [len=] covers it and the next header starts on a fresh
   line even for bodies that forgot their final newline. *)
let frame_body body =
  if body = "" || body.[String.length body - 1] <> '\n' then body ^ "\n"
  else body

(* [render_frame line payload] is the full wire rendering of one frame:
   the header line — with [len=<bytes>] appended when there is a
   payload — followed by the payload bytes. *)
let render_frame line payload =
  match payload with
  | None -> line ^ "\n"
  | Some body ->
    let body = frame_body body in
    Printf.sprintf "%s len=%d\n%s" line (String.length body) body

let err_code_of_exn = function
  | Service.Spot_check_failed _ | Service.Native_emit_failed _ -> 4
  | Lsra.Verify.Mismatch _ -> 3
  | _ -> 1

let err_message_of_exn = function
  | Service.Spot_check_failed { req_id = _; key } ->
    Printf.sprintf "spot-check divergence on cache key %s" key
  | Service.Native_emit_failed { req_id = _; msg } ->
    Printf.sprintf "native emission failed: %s" msg
  | Lsra.Verify.Mismatch { fn; block; where; what } ->
    Printf.sprintf "verification failed in function '%s', block '%s', at \
                    '%s': %s" fn block where what
  | Lsra_text.Ir_text.Parse_error { line; msg } ->
    Printf.sprintf "parse error at line %d: %s" line msg
  | Lsra_ir.Cfg.Malformed msg -> "malformed program: " ^ msg
  | Lsra.Precheck.Rejected msg -> "input rejected: " ^ msg
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Client-side reply parsing (bench clients, tests).                   *)

type reply =
  | R_ok of {
      id : string;
      hit : bool;
      downgraded_to : string option;
      wall_us : int;
      body_len : int option;
    }
  | R_err of { id : string; code : int; msg : string }
  | R_stats of { id : string; fields : (string * string) list }

let parse_reply line =
  match split_words line with
  | "OK" :: id :: opts ->
    let hit = ref false
    and downgraded_to = ref None
    and wall_us = ref 0
    and body_len = ref None
    and bad = ref None in
    List.iter
      (fun w ->
        match kv_of w with
        | Some ("cache", "hit") -> hit := true
        | Some ("cache", "cold") -> hit := false
        | Some ("downgraded-to", a) -> downgraded_to := Some a
        | Some ("wall-us", v) ->
          wall_us := Option.value ~default:0 (int_of_string_opt v)
        | Some ("len", v) -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> body_len := Some n
          | Some _ | None -> bad := Some (Printf.sprintf "malformed len %S" v))
        | Some _ | None -> bad := Some (Printf.sprintf "malformed OK field %S" w))
      opts;
    (match !bad with
    | Some m -> Error m
    | None ->
      Ok
        (R_ok
           {
             id;
             hit = !hit;
             downgraded_to = !downgraded_to;
             wall_us = !wall_us;
             body_len = !body_len;
           }))
  | "ERR" :: id :: code :: msg -> (
    match int_of_string_opt code with
    | Some code -> Ok (R_err { id; code; msg = String.concat " " msg })
    | None -> Error (Printf.sprintf "malformed ERR code %S" code))
  | "STATS" :: id :: kvs ->
    Ok (R_stats { id; fields = List.filter_map kv_of kvs })
  | w :: _ -> Error (Printf.sprintf "unknown reply frame %S" w)
  | [] -> Error "empty reply line"
