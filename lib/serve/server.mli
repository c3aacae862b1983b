(** The `refill serve` daemon: a TCP listener accepting refill-wire
    connections and feeding one {!Refill.Stream} (sharded per
    [stream.shards]).

    One loop thread over [Unix.select] owns the listeners and every
    connection.  It feeds each decoded frame to the stream itself, in the
    order it reads them, and acks a frame right after its feed returns,
    so an ack means the records are in the stream and every flow they
    evicted has been emitted.  Shutdown — {!stop}, {!request_stop} from a
    signal handler, or a stream failure — is checkpoint-and-exit: once
    the loop has returned, the final checkpoint holds every acked record,
    so resume is byte-identical. *)

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
      (** Seconds a connection may go without a byte read or written
          before it is closed; ≤ 0 disables. *)
  max_frame : int;
      (** Negotiated maximum frame payload bytes; it bounds each
          connection's input buffer. *)
  stream : Refill.Config.t;
  sink : int;  (** The topology's backbone sink node. *)
  emit : Emit.sink;
      (** Flow outcomes, written by the loop thread during a feed, and by
          the thread calling {!wait} for the final [finish]. *)
  on_segment : (unit -> unit) option;
      (** Test hook: runs in the loop thread just before each segment is
          fed (throttling it exercises backpressure). *)
}

val default_config : config
(** Ephemeral port, no HTTP, no checkpoint, 30 s timeout/interval, 1 MiB
    frames, [Refill.Config.default], sink 0, null emit. *)

type t

val start : config -> (t, Refill.Error.t) result
(** Bind, resume from [checkpoint] if the file exists, and start the
    loop thread.  [Error] on a bind failure of either listener, or a
    listener descriptor [select] cannot watch ([Io]), an unusable
    checkpoint ([Bad_checkpoint]) or a [max_frame] that is not positive
    ([Invalid_config]).  A connection whose descriptor [select] cannot
    watch is refused with a greeting other than [ok].

    Sets the process SIGPIPE disposition to ignore: a peer that vanishes
    mid-write must surface as [EPIPE] on that connection, not kill the
    daemon. *)

val port : t -> int
(** The bound wire port (useful with [port = 0]). *)

val http_port : t -> int option

val request_stop : t -> unit
(** Flag the server to stop; safe to call from a signal handler (only
    flips an atomic — the loop sees it within a tick, 50 ms, and tears
    down). *)

val wait : t -> Refill.Stream.summary
(** Block until the server has fully stopped: join the loop thread
    (which closes the listeners and every connection), write the final
    checkpoint (or [finish] the stream when none is configured),
    close the emit sink, and return the final stream summary.  Re-raises
    the first stream failure — from a feed, a worker or [emit] — which
    also stopped the server. *)

val stop : t -> Refill.Stream.summary
(** [request_stop] + [wait]. *)
