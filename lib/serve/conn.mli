(** One ingesting server connection: Handshaking → Streaming →
    Closed/Rejected.

    Runs in the connection's own thread.  Each data frame is decoded into
    the connection's one reusable arena and handed to [feed]; the ack is
    sent after [feed] returns, so an ack means the records were fed, and
    the next frame is read only then.  Protocol violations and socket
    failures — including a receive timeout — terminate only this
    connection. *)

val handle :
  id:int ->
  fd:Unix.file_descr ->
  feed:(Logsys.Arena.slice -> bool) ->
  max_frame:int ->
  read_timeout:float ->
  unit
(** Drive the connection to completion (end-of-stream, a rejection, or
    [feed] returning [false] — the stream failed, and the frame is not
    acked); closes [fd], maintains the {!Telemetry} connection gauges and
    frame/record/byte counters.  [read_timeout] ≤ 0 disables the receive
    timeout. *)
