(** refill-wire v1: the framed record-batch protocol `refill serve`
    speaks.

    Prologue: the client sends ["refill-wire v1\n"]; the server answers
    ["refill-wire v1 ok max-frame=<N>\n"] (negotiating the maximum frame
    payload).  Then both directions carry length-prefixed frames: a
    4-byte big-endian payload length, one type byte, and the payload.

    Client frame types: ['D'] — a record batch
    ({!Logsys.Codec.encode_segment} bytes); ['E'] — end of stream (empty
    payload).  Server frames: ['A'] — an {!ack}.  Every accepted ['D']
    (and the final ['E']) is acked; the ack means the records have been
    fed to the stream, and the flows they evicted emitted, so clients
    that need a total cross-connection order can serialize on acks.

    All protocol violations raise {!Protocol_error}; socket failures
    surface as [Unix.Unix_error].  The blocking helpers are the client's;
    the server reads and writes through its own buffers. *)

exception Protocol_error of string

val proto_fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf.ksprintf]-style formatter raising {!Protocol_error}. *)

val magic : string
(** ["refill-wire v1"]. *)

val frame_data : char
val frame_end : char
val frame_ack : char

val default_max_frame : int
(** 1 MiB. *)

val header_size : int
(** Frame header bytes (4 length + 1 type). *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write exactly [len] bytes (loops over short writes). *)

val write_string : Unix.file_descr -> string -> unit

(** {2 Listeners}

    The one bind path of the server's three listeners: the wire port,
    [/metrics] and the emit tap. *)

type listener = { fd : Unix.file_descr; port : int }

val listen_on : int -> listener
(** Bind and listen on loopback [port] ([0] picks an ephemeral port); the
    socket is nonblocking, so [accept] raises [EAGAIN] when nobody waits.
    @raise Unix.Unix_error when the port is busy. *)

val close_listener : listener -> unit
(** Close the socket; a new listener can bind the port once this
    returns. *)

val client_greeting : string

val server_greeting : max_frame:int -> string

val send_client_greeting : Unix.file_descr -> unit

val refusal : string
(** The line a server answers a connection it cannot take with: not
    [ok], so {!expect_server_greeting} raises "server refused". *)

val expect_server_greeting : Unix.file_descr -> int
(** Returns the server's negotiated max frame payload size. *)

val write_frame : Unix.file_descr -> typ:char -> Bytes.t -> unit

val frame_length : Bytes.t -> int -> max_payload:int -> int
(** The payload length in the frame header at the offset.
    @raise Protocol_error when it lies outside [[0, max_payload]]. *)

val read_frame : Unix.file_descr -> max_payload:int -> char * Bytes.t
(** The length is validated against [max_payload] {e before} any payload
    byte is read or allocated.
    @raise Protocol_error on EOF mid-frame or an out-of-range length. *)

type ack = {
  frames : int;  (** Data frames accepted on this connection so far. *)
  records : int;  (** Records accepted on this connection so far. *)
}

val ack_frame : ack -> Bytes.t
(** The whole ['A'] frame, header included. *)

val read_ack : Unix.file_descr -> ack
(** @raise Protocol_error when the next frame is not an ack. *)
