(** A minimal HTTP/1.0 responder for the server's [/metrics] endpoint —
    a scrape target for curl and Prometheus, not a web server.  Each
    request gets a short-lived thread and the connection is closed after
    one response; unknown paths get 404, non-GET methods 405. *)

type t

val start : port:int -> routes:(string * (unit -> string * string)) list -> t
(** Listen on loopback [port] ([0] picks an ephemeral port — read it
    back with {!port}).  Each route maps an exact path to a thunk
    returning [(content_type, body)], evaluated per request. *)

val port : t -> int

val stop : t -> unit
(** Stop the accept thread and close the listener, so the port can be
    bound again; in-flight request threads finish on their own. *)

val metrics_routes :
  ?registry:Refill_obs.Metrics.registry -> unit -> (string * (unit -> string * string)) list
(** The standard route table: [/metrics] serving
    {!Refill_obs.Metrics.dump_prometheus}. *)
