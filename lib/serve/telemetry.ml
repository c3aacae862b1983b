module Obs = Refill_obs

(* The server's observability surface, declared once in the process-wide
   registry that /metrics serves.  Counters and gauges are atomics and
   each histogram has its own mutex, so the loop and the shard domains
   need no lock of their own. *)

let conn_gauge state =
  Obs.Metrics.Gauge.v
    ~help:"Server connections by lifecycle state"
    ~labels:[ ("state", state) ]
    "refill_serve_connections"

let conns_handshaking = conn_gauge "handshaking"
let conns_streaming = conn_gauge "streaming"
let conns_closed = conn_gauge "closed"
let conns_rejected = conn_gauge "rejected"

let frames_total =
  Obs.Metrics.Counter.v ~help:"Data frames accepted over refill-wire"
    "refill_serve_frames_total"

let records_total =
  Obs.Metrics.Counter.v ~help:"Records accepted over refill-wire"
    "refill_serve_records_total"

let bytes_total =
  Obs.Metrics.Counter.v ~help:"Frame payload bytes accepted over refill-wire"
    "refill_serve_bytes_total"

let backpressure_stalls_total =
  Obs.Metrics.Counter.v
    ~help:
      "Data frames that waited, already read, while the loop fed another \
       connection's frame"
    "refill_serve_backpressure_stalls_total"

let checkpoint_seconds =
  Obs.Metrics.Histogram.v ~help:"Wall time of periodic server checkpoints"
    "refill_serve_checkpoint_seconds"

(* Lifecycle transitions: each connection occupies exactly one state
   gauge at a time, ending in closed or rejected (both terminal counts
   only ever grow). *)
let enter_handshaking () = Obs.Metrics.Gauge.add conns_handshaking 1.0

let handshake_ok () =
  Obs.Metrics.Gauge.add conns_handshaking (-1.0);
  Obs.Metrics.Gauge.add conns_streaming 1.0

let finish ~rejected ~was_streaming =
  Obs.Metrics.Gauge.add
    (if was_streaming then conns_streaming else conns_handshaking)
    (-1.0);
  Obs.Metrics.Gauge.add (if rejected then conns_rejected else conns_closed) 1.0
