(** Flow-outcome emission: the stable one-line-per-flow text format and
    the sinks (file, publish socket) that carry it.

    Lines contain no timestamps or other run-local material, so the
    stream a live server emits is byte-comparable with an offline
    [reconstruct --stream --emit-file] over the same record sequence. *)

val line : Refill.Stream.emitted -> string
(** ["C 3 17 delivered | 3-2 trans, [3-2 recv], ..."] — outcome letter
    ([C]omplete / [I]ncomplete), origin, seq, [e.cause], then the flow
    rendered by {!Refill.Flow.add_to_buffer}.  No trailing newline. *)

val prov_line : Refill.Flow.t -> string option
(** Provenance side-car line ["p <int> <int> ..."] — the packed
    {!Refill.Provenance.t} ints in item order.  [None] when the run did
    not collect provenance. *)

type sink = { write : string -> unit; close : unit -> unit }
(** [write] takes one line without its newline; [close] is idempotent in
    effect (callers invoke it once). *)

val null : sink
(** Drops every line; {!emit_to} renders nothing for it. *)

val to_file : string -> sink
(** Truncate-and-write; lines are flushed on [close]. *)

val publish : port:int -> sink
(** Listen on loopback [port]; every connected subscriber receives each
    subsequent line.  Best-effort tap, not a queue: lines written with no
    subscriber are dropped, and a subscriber whose socket errors is
    dropped silently.  A momentarily full subscriber socket is not an
    error — the undelivered tail is buffered (bounded) and retried on the
    next write, so a live subscriber never sees a torn line; only a peer
    stalled past the backlog bound is dropped.  Subscribers waiting on
    the listener are accepted at the first write and then at most every
    50 ms, so a subscriber connected before the first write gets every
    line, and a later one joins within 50 ms.  [write] is for one thread
    at a time.
    [close] disconnects subscribers and closes the listener, so the port
    can be bound again. *)

val tee : sink -> sink -> sink

val emit_to : sink -> Refill.Stream.emitted -> unit
(** Write {!line} and, when present, {!prov_line}; nothing at all when
    the sink is {!null} (physically). *)
