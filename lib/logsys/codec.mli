(** Compact binary encoding of event records — what a sensor node would
    actually keep in flash and ship over the radio.

    Layout per record: one tag byte (event kind, 3 bits) followed by
    LEB128 varints for the fields the kind needs — peer (link events
    only), origin, and per-origin sequence number.  The recording node id
    is *not* stored (a node's log is self-describing), and the
    ground-truth fields ([true_time], [gseq]) are never encoded: a decoded
    record carries [true_time = nan], [gseq = -1].

    Typical cost is 3–5 bytes per record, which is what makes in-band log
    collection affordable (§V's 16–24-record chunks fit one 802.15.4
    frame's payload budget within small factors). *)

val tag_of_kind : Record.kind -> int
(** The stable on-disk tag (0–7) of a kind.  Tag order matches
    [Refill.Protocol.tag_of_label], which is what lets column-oriented
    consumers ({!Arena}) map tags to labels with a plain array read. *)

val peer_of_kind : Record.kind -> int option
(** The kind's peer field ([None] for [Gen]/[Deliver]). *)

val kind_of_tag : int -> int option -> Record.kind
(** Inverse of {!tag_of_kind}/{!peer_of_kind}.
    @raise Failure on an unknown tag or a missing peer for tags 1–6. *)

val zigzag : int -> int
(** Zig-zag map a signed int onto a nonnegative one for varint encoding.
    @raise Failure for [n > max_int/2] or [n < -max_int/2 - 1] — values
    the doubling would silently wrap. *)

val unzigzag : int -> int
(** Inverse of {!zigzag} (total — any nonnegative int maps back). *)

val encode_record : Buffer.t -> Record.t -> unit
(** Append one record's encoding (without its node id).
    @raise Failure when a field is outside {!zigzag} range. *)

val decode_record :
  node:Net.Packet.node_id -> Bytes.t -> pos:int -> Record.t * int
(** [decode_record ~node b ~pos] reads one record starting at [pos] and
    returns it (attributed to [node]) with the position after it.
    @raise Failure on truncated or malformed input, including varints that
    would not fit a 63-bit OCaml int (more than 9 continuation groups). *)

val encode_log : Record.t array -> Bytes.t
(** Encode one node's log (records in order). *)

val decode_log : node:Net.Packet.node_id -> Bytes.t -> Record.t array
(** Inverse of {!encode_log}.
    @raise Failure on malformed input. *)

val encode_segment : Record.t array -> Bytes.t
(** Encode a cross-node slice of the collection stream: a record count
    varint, then each record as a node-id varint followed by its
    {!encode_record} body.  This is the frame shape streaming ingestion
    ({!Refill.Stream}) consumes — unlike {!encode_log}, records may come
    from any mix of nodes. *)

val decode_segment : Bytes.t -> Record.t array
(** Inverse of {!encode_segment}.  Decoded records carry [true_time = nan]
    and [gseq = -1], like {!decode_log}.
    @raise Failure on malformed input, including trailing bytes. *)

val encoded_size : Record.t -> int
(** Bytes {!encode_record} would emit for this record. *)

val log_size : Record.t array -> int
(** Total encoded bytes of a log. *)
