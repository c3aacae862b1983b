module Obs = Refill_obs

(* A deliberately tiny HTTP/1.0 responder for the server's /metrics
   endpoint: the serve loop reads a request into its buffer, and this
   module finds the request line and renders the one response, after
   which the loop closes the connection.  This is a scrape target for
   curl and Prometheus, not a web server — no keep-alive, no chunking,
   headers and request bodies ignored. *)

let max_request_line = 1024

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

(* The request line in [b.[0, len)] once it is complete: up to the first
   newline, or whatever came when the peer stopped sending or went past
   [max_request_line]; carriage returns are dropped. *)
let request_line b len ~eof =
  let s = Bytes.sub_string b 0 len in
  let line =
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None -> if eof || len > max_request_line then Some s else None
  in
  Option.map (fun l -> String.concat "" (String.split_on_char '\r' l)) line

let respond ~routes line =
  match String.split_on_char ' ' line with
  | [ "GET"; path; _ ] | [ "GET"; path ] -> (
      match List.assoc_opt path routes with
      | Some body_fn ->
          let content_type, body = body_fn () in
          http_response ~status:"200 OK" ~content_type body
      | None ->
          http_response ~status:"404 Not Found" ~content_type:"text/plain"
            "not found\n")
  | _ ->
      http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "GET only\n"

let metrics_routes ?registry () =
  [
    ( "/metrics",
      fun () ->
        ( Obs.Metrics.prometheus_content_type,
          Obs.Metrics.dump_prometheus ?registry () ) );
  ]
