module Obs = Refill_obs

(* A deliberately tiny HTTP/1.0 responder for the server's /metrics
   endpoint: one accept thread, one short-lived thread per request,
   close after the response.  This is a scrape target for curl and
   Prometheus, not a web server — no keep-alive, no chunking, request
   bodies ignored. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

(* Read up to the end of the request line; the rest of the request (headers)
   is irrelevant and left unread — we respond and close. *)
let read_request_line fd =
  let buf = Buffer.create 64 in
  let one = Bytes.create 1 in
  let rec go () =
    if Buffer.length buf > 1024 then Buffer.contents buf
    else
      match Unix.read fd one 0 1 with
      | 0 -> Buffer.contents buf
      | _ -> (
          match Bytes.get one 0 with
          | '\n' -> Buffer.contents buf
          | '\r' -> go ()
          | c ->
              Buffer.add_char buf c;
              go ())
  in
  go ()

let handle_request ~routes fd =
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Bound how long a dawdling scraper can hold the request thread. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  match String.split_on_char ' ' (read_request_line fd) with
  | [ "GET"; path; _ ] | [ "GET"; path ] ->
      let response =
        match List.assoc_opt path routes with
        | Some body_fn ->
            let content_type, body = body_fn () in
            http_response ~status:"200 OK" ~content_type body
        | None -> http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"
      in
      Wire.write_string fd response
  | _ ->
      Wire.write_string fd
        (http_response ~status:"405 Method Not Allowed"
           ~content_type:"text/plain" "GET only\n")

type t = Wire.listener

let start ~port ~routes =
  let l = Wire.listen_on port in
  Wire.accept_in_thread l (fun fd ->
      let (_ : Thread.t) =
        Thread.create
          (fun () ->
            try handle_request ~routes fd
            with Unix.Unix_error _ | Sys_error _ -> ())
          ()
      in
      ());
  l

let port = Wire.listener_port
let stop = Wire.close_listener

let metrics_routes ?registry () =
  [
    ( "/metrics",
      fun () ->
        ( Obs.Metrics.prometheus_content_type,
          Obs.Metrics.dump_prometheus ?registry () ) );
  ]
