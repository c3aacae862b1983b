(** A minimal HTTP/1.0 responder for the server's [/metrics] endpoint —
    a scrape target for curl and Prometheus, not a web server.  The serve
    loop reads each request and closes the connection after one
    response; unknown paths get 404, non-GET methods 405. *)

val request_line : Bytes.t -> int -> eof:bool -> string option
(** The request line in the first [len] bytes, once complete: a newline,
    end-of-file, or more than 1 KiB (answered as it stands). *)

val respond : routes:(string * (unit -> string * string)) list -> string -> string
(** The whole response to a request line.  Each route maps an exact path
    to a thunk returning [(content_type, body)], evaluated per
    request. *)

val metrics_routes :
  ?registry:Refill_obs.Metrics.registry -> unit -> (string * (unit -> string * string)) list
(** The standard route table: [/metrics] serving
    {!Refill_obs.Metrics.dump_prometheus}. *)
