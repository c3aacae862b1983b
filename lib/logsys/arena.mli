(** Flat column store for event records — the zero-copy ingest layer.

    Records live as packed int fields in parallel Bigarray columns (node,
    kind tag, peer, origin, seq, gseq) plus a float64 column for the
    ground-truth timestamp, instead of per-record heap allocations.  Bulk
    decoders append an encoded log or segment straight into the columns
    with no intermediate [Record.t]; the record API survives as a
    materializing view ({!get}), which yields a [Record.equal]-identical
    record for any row, so record-based and arena-based pipelines produce
    byte-identical output.

    API rule of thumb: hot loops index columns ({!node}, {!tag}, …, or
    {!equal_rows}); anything that stores or prints an event
    materializes it once via {!get}.  Kind tags are the stable
    {!Codec.tag_of_kind} values. *)

type t

type arena = t

type slice = { sl_base : t; sl_off : int; sl_len : int }
(** A contiguous row range [sl_off, sl_off + sl_len) of an arena — what
    streaming consumers feed chunk by chunk. *)

val create : ?capacity:int -> unit -> t
(** An empty arena; columns grow geometrically as rows are pushed. *)

val length : t -> int

val capacity : t -> int

val clear : t -> unit
(** Reset to zero rows, keeping the column storage for reuse (how a
    chunked reader avoids re-allocating per segment). *)

(** {2 Row accessors}

    Plain column reads; meaningful for rows [0 .. length - 1].  {!peer}
    is only meaningful for tags 1–6 (link kinds) and may legitimately be
    [-1] (the unknown-node sentinel); no-peer rows hold an unspecified
    poison value. *)

val node : t -> int -> int
val tag : t -> int -> int
val peer : t -> int -> int
val origin : t -> int -> int
val pkt_seq : t -> int -> int
val gseq : t -> int -> int
val true_time : t -> int -> float

val get : t -> int -> Record.t
(** Materialize row [i] as a record — [Record.equal]-identical to the
    record the row was built from.  @raise Invalid_argument out of
    bounds. *)

val equal_rows : t -> int -> int -> bool
(** [equal_rows t i j] = [Record.equal (get t i) (get t j)], without
    materializing (NaN times compare equal, like [Record.equal]). *)

val push : t -> Record.t -> unit

val push_row :
  t ->
  node:int ->
  tag:int ->
  peer:int ->
  origin:int ->
  pkt_seq:int ->
  true_time:float ->
  gseq:int ->
  unit
(** Raw column append; [tag] must be a valid kind tag (0–7) and [peer]
    is ignored semantically for tags 0 and 7. *)

val copy_row : t -> int -> t -> int -> unit
(** [copy_row src i dst j] copies row [i] of [src] over row [j] of [dst],
    column by column, without materializing it.  [j = length dst]
    appends (the columns grow as {!push_row}'s do); a smaller [j]
    overwrites.  @raise Invalid_argument when [i] is not a row of [src]
    or [j] is above [length dst]. *)

val of_records : Record.t array -> t

val to_records : t -> Record.t array

val slice : t -> off:int -> len:int -> slice
(** @raise Invalid_argument when the range exceeds [length]. *)

val slice_all : t -> slice

val slice_records : slice -> Record.t array
(** Materialize every row of a slice (convenience for record-based
    consumers, like a wire client encoding a chunk it read). *)

(** {2 Bulk decoding}

    The codec's wire formats decoded straight into columns — the
    zero-allocation ingest path.  Same failure semantics as
    {!Codec.decode_log}/{!Codec.decode_segment}: truncated input,
    >63-bit varints, unknown tags and trailing bytes all raise
    [Failure].  Decoded rows carry [true_time = nan], [gseq = -1], like
    the record decoders. *)

val decode_log_into : t -> node:int -> Bytes.t -> int
(** Append one node's encoded log ({!Codec.encode_log}); returns the
    number of rows appended. *)

val decode_segment_into : ?off:int -> ?len:int -> t -> Bytes.t -> int
(** Append a cross-node segment ({!Codec.encode_segment}) held in the
    [len] bytes at [off] (default: the whole buffer); returns the number
    of rows appended. *)

(** {2 Per-packet index}

    The one per-packet index: packet buckets hold arena row indices in
    node-scan order (nodes ascending, each node's rows in arena order),
    and {!node_rows} groups every node's rows, its log.  One hash table
    maps each distinct [(origin, seq)] to its bucket, so the index's
    memory follows its rows and distinct keys, whatever the key values.
    {!Collected}'s per-packet views read one of these, built over a
    node-major copy of the snapshot.  Built once, read-only afterwards —
    safe to share across domains. *)
module Packets : sig
  type t

  val build : arena -> n_nodes:int -> t
  (** @raise Failure when a row's node is outside [0, n_nodes);
      [Invalid_argument] when [n_nodes <= 0]. *)

  val arena : t -> arena

  val n_nodes : t -> int
  (** One more than the highest node any row names ([0] with no rows):
      the index's node tables follow its rows, not [~n_nodes], so a dump
      header cannot size them. *)

  val keys : t -> (int * int) list
  (** Distinct [(origin, seq)] keys, sorted by [compare]. *)

  val node_rows : t -> int -> int array
  (** One node's rows in arena order — its log, as row indices; [[||]]
      for a node outside [0, n_nodes). *)

  val packet_rows : t -> origin:int -> seq:int -> int array
  (** One packet's rows in node-scan order: nodes ascending, each node's
      rows in arena order — the record order the reconstruction's packer
      expects.  [[||]] for unknown keys.  Shared with the index — do not
      mutate. *)
end
