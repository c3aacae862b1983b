(** Plain-text serialization of collected logs and ground truth.

    A dump holds one collected-log snapshot (per-node logs, write order) and
    optionally the simulator's ground-truth packet fates, in a line-oriented
    format that diffs and greps well:

    {v
    # refill-log v1
    # nodes 100
    # sink 0
    r <node> <kind> <peer|-> <origin> <seq> <time> <gseq>
    ...
    t <origin> <seq> <cause> <loss-node|-> <generated> <resolved> <path,csv>
    v}

    Used by the CLI to hand logs from `simulate` to every command that
    reads them, all through the one reader, {!Mseg}. *)

val save :
  out_channel ->
  sink:Net.Packet.node_id ->
  ?truth:Truth.t ->
  ?time_order:bool ->
  Collected.t ->
  unit
(** Write a dump.  Records go node-major by default; [~time_order:true]
    emits them in true-time arrival order ({!Collected.merged_by_time})
    instead — the shape streaming readers ({!Mseg}) want, since node-major
    order would make nearly every packet look still-in-flight. *)

val save_file :
  string ->
  sink:Net.Packet.node_id ->
  ?truth:Truth.t ->
  ?time_order:bool ->
  Collected.t ->
  unit

val record_to_line : Record.t -> string
(** The [r ...] line for one record (without trailing newline). *)

val record_of_line : string -> Record.t
(** The record an [r ...] line spells — how checkpoint resume reads its
    buffered records.  Integer fields go through [int_of_string].
    @raise Failure on malformed input. *)

val add_record_line_exact : Buffer.t -> Record.t -> unit
(** Append {!record_to_line}'s line with the time field in hexadecimal
    float notation ([%h]), so {!record_of_line} recovers the record
    bit-exactly (including [nan] times).  Checkpoints use this; ordinary
    dumps keep the human-readable [%.6f] form. *)

val record_to_line_exact : Record.t -> string
(** {!add_record_line_exact} as a string. *)

(** The one dump reader, incremental: the format {!save} writes, consumed
    chunk by chunk so a streaming pipeline never holds the whole trace.
    The file is memory-mapped and record lines decode in place straight
    into {!Arena} columns — no channel buffering, no per-line strings, and
    a record allocates only its boxed time: a [%.6f] time converts
    without [float_of_string], any other spelling through it, so times
    load bit-identically to {!record_of_line}.  Integer fields, in header,
    record and truth lines alike, are optionally signed decimal digits
    only.  Truth ([t ...]) and comment lines are skipped; {!truth} reads
    the truth lines apart.  Every command that reads a dump reads it
    through here. *)
module Mseg : sig
  type reader

  val open_file : string -> reader
  (** Map the file and parse the three header lines.  The file descriptor
      is closed before returning (the mapping persists until the reader
      is collected).
      @raise Failure on a malformed header; [Unix.Unix_error] when the
      file cannot be opened ([EISDIR] for a directory). *)

  val n_nodes : reader -> int

  val sink : reader -> Net.Packet.node_id

  val read : reader -> int
  (** Records decoded (or skipped) so far — the stream position of the
      reader, matching what a streaming consumer counts as processed. *)

  val next_into : reader -> Arena.t -> max_records:int -> int
  (** Decode up to [max_records] further records into the arena (appended
      as rows); returns how many were appended — [0] only at end of
      input.  Truth and comment lines are skipped.
      @raise Failure on a malformed or out-of-node-range record line,
      [Invalid_argument] if [max_records <= 0]. *)

  val truth : reader -> Truth.t option
  (** The dump's ground-truth fates: one pass over the whole file,
      whatever the reader's position, one fate per [t ...] line ([None]
      when there are none).  {!next_into} never collects them, so a
      streaming run holds no fates.
      @raise Failure on a malformed truth line. *)

  val skip : reader -> int -> int
  (** [skip r n] fast-forwards past up to [n] record lines without
      decoding them (they are not validated beyond line classification)
      and returns how many were skipped (fewer only at end of input) —
      how a resumed streaming run fast-forwards past already-processed
      records. *)
end
