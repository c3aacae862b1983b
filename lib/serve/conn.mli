(** One nonblocking socket of the serve loop — a refill-wire connection
    (Handshaking → Streaming → Closed/Rejected), an HTTP request or an
    emit subscriber — with its input and output buffers and its
    deadline.  Protocol violations
    and socket failures raise out of {!read}, {!flush} and {!step}; the
    loop then closes only this connection. *)

type t = {
  id : int;
  fd : Unix.file_descr;
  wire : bool;  (** [false]: an HTTP request or an emit subscriber. *)
  mutable inb : Bytes.t;  (** Read, not yet consumed: [inb.[0, ilen)]. *)
  mutable ilen : int;
  mutable out : Bytes.t;
  mutable ooff : int;
  mutable deadline : float;  (** Pushed back by every read and write. *)
  mutable streaming : bool;
  mutable frames : int;
  mutable records : int;
  mutable eof : bool;
  mutable closing : bool;  (** Done: close once the output drains. *)
}

val create : id:int -> wire:bool -> Unix.file_descr -> deadline:float -> t
(** Nonblocking; a wire connection also gets [TCP_NODELAY] and enters the
    handshaking gauge. *)

val wants_read : t -> bool
val wants_write : t -> bool
val finished : t -> bool

val read : t -> deadline:float -> unit
(** One read into the input buffer's free space; sets [eof]. *)

val flush : t -> deadline:float -> unit
val send : t -> Bytes.t -> deadline:float -> unit

val step :
  t ->
  max_frame:int ->
  arena:Logsys.Arena.t ->
  feed:(Logsys.Arena.slice -> bool) ->
  deadline:float ->
  unit
(** Answer the greeting, then decode, [feed] and ack each complete frame;
    the ack is written right after [feed] returns, so an ack means the
    records were fed.  [feed] returning [false] (the stream failed)
    closes the connection without acking the frame.
    @raise Wire.Protocol_error on a violation. *)

val close : t -> reason:string option -> unit
(** A wire connection lands on the [closed] gauge, or with a reason
    (logged) on [rejected]. *)

val reason : exn -> string
