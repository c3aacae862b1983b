(** The feeding side of refill-wire — what `refill feed`, the tests,
    and the serve bench use to push records into a live server.

    {!send} is lockstep (frame out, ack in): once it returns, the
    records have been fed to the server's stream, so clients taking turns
    impose an exact cross-connection order.  {!send_nowait} pipelines
    frames and collects acks later — the throughput mode, and the one
    that exercises server backpressure.  Batches whose encoding exceeds
    the negotiated frame size are split transparently. *)

type t

exception Record_too_large of { encoded : int; max_frame : int }
(** A single record's encoding exceeds the negotiated frame limit, so no
    amount of batch splitting can make it sendable.  Raised by {!send} /
    {!send_nowait} {e before} anything hits the wire — the server would
    be guaranteed to reject the frame and kill the connection. *)

type stats = {
  frames : int;
  records : int;
  bytes : int;  (** Frame payload bytes sent. *)
  rtt_p50 : float;
  rtt_p99 : float;  (** Lockstep ack round-trip, seconds; 0. if none. *)
}

val connect : ?host:Unix.inet_addr -> port:int -> unit -> t
(** TCP connect + refill-wire handshake.
    @raise Wire.Protocol_error when the server refuses the handshake. *)

val max_frame : t -> int
(** The server's negotiated frame-payload limit. *)

val send : t -> Logsys.Record.t array -> Wire.ack
(** Lockstep send; returns the server's cumulative ack.
    @raise Record_too_large before sending anything when one record
    cannot fit the negotiated frame. *)

val send_nowait : t -> Logsys.Record.t array -> unit
(** @raise Record_too_large as {!send}. *)

val drain_acks : t -> Wire.ack option
(** Collect every outstanding pipelined ack; [None] if none were
    pending. *)

val finish : t -> Wire.ack
(** Drain pending acks, send end-of-stream, await the final ack, and
    close the socket. *)

val close : t -> unit
(** Abandon the connection without end-of-stream (tests). *)

val stats : t -> stats

val feed_file :
  ?chunk:int -> ?lockstep:bool -> t -> Logsys.Log_io.Mseg.reader -> unit
(** Send an open dump's remaining records in file order, [chunk] (default
    512) records per batch; [lockstep] (default true) picks {!send} vs
    {!send_nowait}.  Opening the dump first lets a caller report a bad
    one before it connects.
    @raise Failure on a malformed record line. *)
