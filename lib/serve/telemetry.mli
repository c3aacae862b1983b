(** The server's metric instruments ([refill_serve_*]), declared once in
    the process-wide registry ({!Refill_obs.Metrics.default_registry}) so the
    [/metrics] endpoint and the end-of-run metrics dump both see them. *)

val conns_rejected : Refill_obs.Metrics.Gauge.t
val frames_total : Refill_obs.Metrics.Counter.t
val records_total : Refill_obs.Metrics.Counter.t
val bytes_total : Refill_obs.Metrics.Counter.t
val backpressure_stalls_total : Refill_obs.Metrics.Counter.t
val checkpoint_seconds : Refill_obs.Metrics.Histogram.t

val enter_handshaking : unit -> unit

val handshake_ok : unit -> unit
(** Handshaking → streaming. *)

val finish : rejected:bool -> was_streaming:bool -> unit
(** Terminal transition: the connection leaves its live state gauge and
    lands on [closed] (orderly) or [rejected] (protocol violation or
    timeout). *)
