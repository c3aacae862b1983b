(** The `refill serve` daemon: a TCP listener accepting refill-wire
    connections and feeding one {!Refill.Stream} (sharded per
    [stream.shards]).

    One ingest thread owns the stream; connection threads hand decoded
    segments over a bounded queue (queue order = global record order),
    and an ack on the wire certifies the records' stream position.
    Shutdown — {!stop}, or {!request_stop} from a signal handler — is
    checkpoint-and-exit: acked segments are always drained into the
    stream before the final checkpoint, so resume is byte-identical. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (tests). *)
  http_port : int option;
      (** Start a [/metrics] HTTP endpoint; [Some 0] ephemeral. *)
  checkpoint : string option;
      (** Checkpoint path: resumed from when present at startup, written
          periodically and at shutdown (frontier left open).  [None]
          means shutdown flushes the frontier like an offline run. *)
  checkpoint_interval : float;  (** Seconds between periodic checkpoints. *)
  read_timeout : float;
      (** Per-connection receive timeout in seconds; ≤ 0 disables. *)
  max_frame : int;  (** Negotiated maximum frame payload bytes. *)
  queue_capacity : int;
      (** Ingest queue bound, in segments; in-flight wire bytes are
          bounded by [queue_capacity × max_frame] plus per-connection
          arena rings. *)
  arena_slots : int;  (** Decoded-segment ring size per connection. *)
  stream : Refill.Config.t;
  sink : int;  (** The topology's backbone sink node. *)
  emit : Emit.sink;  (** Flow outcomes, written from the ingest thread. *)
  on_segment : (unit -> unit) option;
      (** Test hook: runs in the ingest thread before each segment is
          fed (throttling it exercises backpressure). *)
}

val default_config : config
(** Ephemeral port, no HTTP, no checkpoint, 30 s timeout/interval, 1 MiB
    frames, 64-segment queue, 4 arena slots, [Refill.Config.default],
    sink 0, null emit. *)

type t

val start : config -> (t, Refill.Error.t) result
(** Bind, resume from [checkpoint] if the file exists, and spin up the
    accept / ingest / timer threads.  [Error] on a bind failure of either
    listener ([Io]) or an unusable checkpoint ([Bad_checkpoint]).

    Sets the process SIGPIPE disposition to ignore: a peer that vanishes
    mid-write must surface as [EPIPE] on that connection, not kill the
    daemon. *)

val port : t -> int
(** The bound wire port (useful with [port = 0]). *)

val http_port : t -> int option

val request_stop : t -> unit
(** Flag the server to stop; safe to call from a signal handler (only
    flips an atomic — the timer thread performs the teardown). *)

val wait : t -> Refill.Stream.summary
(** Block until the server has fully stopped; joins every thread, closes
    the emit sink, and returns the final stream summary.  Re-raises an
    ingest-thread failure. *)

val stop : t -> Refill.Stream.summary
(** [request_stop] + [wait]. *)
