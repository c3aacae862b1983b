(** The `refill serve` daemon: a TCP listener accepting refill-wire
    connections and feeding one {!Refill.Stream} (sharded per
    [stream.shards]).

    Each connection thread feeds its decoded segments to the stream under
    one stream lock (lock order = global record order) and acks a segment
    only after the feed returns, so an ack means the records are in the
    stream and every flow they evicted has been emitted.  Shutdown — {!stop}, {!request_stop} from a signal handler,
    or a stream failure — is checkpoint-and-exit: once every connection
    thread has exited the final checkpoint holds every acked record, so
    resume is byte-identical. *)

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
  max_frame : int;
      (** Negotiated maximum frame payload bytes; with one frame read at
          a time per connection, it bounds each connection's in-flight
          wire bytes. *)
  stream : Refill.Config.t;
  sink : int;  (** The topology's backbone sink node. *)
  emit : Emit.sink;
      (** Flow outcomes, written under the stream lock by whichever
          thread holds it (a connection's feed, a checkpoint, the final
          [finish]). *)
  on_segment : (unit -> unit) option;
      (** Test hook: runs under the stream lock, in the feeding
          connection's thread, just before each segment is fed
          (throttling it exercises backpressure). *)
}

val default_config : config
(** Ephemeral port, no HTTP, no checkpoint, 30 s timeout/interval, 1 MiB
    frames, [Refill.Config.default], sink 0, null emit. *)

type t

val start : config -> (t, Refill.Error.t) result
(** Bind, resume from [checkpoint] if the file exists, and spin up the
    accept and timer threads (each connection then gets its own).  [Error] on a bind failure of either
    listener ([Io]), an unusable checkpoint ([Bad_checkpoint]) or a
    [max_frame] that is not positive ([Invalid_config]).

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
(** Block until the server has fully stopped: join the accept and timer
    threads, wait until every connection thread has exited, write the
    final checkpoint (or [finish] the stream when none is configured),
    close the emit sink, and return the final stream summary.  Re-raises
    the first stream failure — from a feed, a worker or [emit] — which
    also stopped the server. *)

val stop : t -> Refill.Stream.summary
(** [request_stop] + [wait]. *)
