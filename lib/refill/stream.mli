(** Streaming reconstruction with bounded memory.

    The batch pipeline ({!Reconstruct.run}) needs the whole collected
    snapshot before the first flow comes out.  A stream instead consumes
    the collection feed segment by segment, keeps only the {e frontier} —
    packets whose records are still arriving — and emits each packet's
    reconstructed flow as soon as the packet goes quiet.

    {2 Frontier and watermark}

    Records are buffered per packet key [(origin, seq)].  A packet is
    considered finished when no record for it has appeared in the last
    [watermark] records processed (a count-based low-watermark, so the
    stream needs no clock).  At that point the eviction walks its
    buffered rows once, reading each one's node, kind tag, peer and global
    stream position into per-shard arrays, and the reconstruction kernel
    that batch runs ({!Reconstruct.of_columns}) orders them by node (the
    node-scan order the batch index would produce) and reconstructs them;
    then the flow is emitted.  An emitted flow
    keeps no arena: its logged items' rows are their global stream
    positions, and its payloads carry no ground-truth time or [gseq]
    ({!Flow.t.arena}).

    On a feed ordered like the real collection stream (arrival order), the
    frontier stays small: the acceptance bench holds its peak under 10% of
    the trace.  Feeding a node-major dump works but keeps almost every
    packet open; use [Log_io.save ~time_order:true] for stream dumps.

    {2 Outcomes}

    Eviction is a wager that the packet is done.  When a record for an
    already-evicted key shows up later, the stream reconstructs the late
    fragment as a second flow for the same key, flagged {!Incomplete} — it
    never rewrites history.  A flow evicted mid-stream is {!Complete} only
    if classification reaches a verdict on it; the end-of-input flush
    emits remaining packets as {!Complete} (nothing more can arrive).
    Hence on lossless input with eviction by final flush only, streaming
    output equals batch output; under mid-stream eviction any flow that
    differs from its batch counterpart is traceable to an [Incomplete]
    sibling.

    Evicted keys are remembered for [Config.late_retention] further
    records (default [4 * watermark]) and then forgotten, which bounds
    the evicted-key table on unbounded streams; forgotten keys are
    counted ({!summary.forgotten_keys},
    [refill_stream_forgotten_keys_total]) so late-fragment accounting
    degrades visibly, not silently.

    {2 Sharding}

    The frontier is split into [config.shards] shards by a hash of the
    packet key.  Every record gets its global stream position, and every
    shard hears every position, so each one evicts exactly where a single
    frontier holding every key would.  Shard 0 runs in the caller's domain
    and every other shard on a worker domain, so [n] shards start [n - 1]
    workers.  Each {!feed_arena} call is one round at any shard count:
    the caller hands every worker the segment and the position before
    it, runs shard 0 itself, waits for every worker, and emits the
    round's evictions ascending by their last record's position — the
    one-shard order.  Every shard scans the whole segment, numbers its
    rows, and copies the rows of its own keys into its row store (arena
    columns off the OCaml heap, reused as packets evict), so nothing is
    bucketed or materialized at feed time.  Output is byte-identical at
    any shard count and any chunking.  A stream buffers at most one
    segment's evictions, so the caller's segment size bounds that
    buffer.

    {2 Checkpoints}

    The live state — counters, evicted-key tables, and the frontier
    buffers with their arrival order — serializes to a text checkpoint
    ([# refill-stream-ckpt v2], one section per shard, with the semantic
    flags in the header).  Resuming and feeding the remaining records
    yields byte-identical flows to an uninterrupted run; a checkpoint
    written at any shard count resumes at any other.  Checkpoints from
    before v2 are refused. *)

type outcome =
  | Complete  (** The stream believes it saw this packet whole. *)
  | Incomplete
      (** Evicted without a classifiable ending, or a late fragment of a
          key already emitted. *)

type emitted = {
  flow : Flow.t;
  outcome : outcome;
  cause : Logsys.Cause.t;
      (** [(Classify.classify flow).cause], computed once per flow by its
          shard, which also decides [outcome]. *)
}

type summary = {
  events : int;  (** Records processed (excludes skipped negatives). *)
  segments : int;  (** [feed] calls. *)
  flows : int;  (** Flows emitted, including late fragments. *)
  complete : int;
  incomplete : int;
  evictions : int;  (** Mid-stream evictions (not end-of-input flushes). *)
  late_fragments : int;
  forgotten_keys : int;
      (** Evicted keys dropped after the retention window: a fragment of
          one of these arriving even later would not be flagged late. *)
  frontier_events : int;  (** Records currently buffered. *)
  peak_frontier_events : int;
}

type t

val create : ?config:Config.t -> sink:int -> emit:(emitted -> unit) -> unit -> t
(** A fresh stream.  [config] supplies the ablation knobs,
    [config.watermark], [config.late_retention] and [config.shards].
    [emit] is called from the caller's domain, in eviction order
    (deterministic for a given record sequence): at any shard count,
    every flow a {!feed_arena} call evicts is emitted at the end of that
    call, before it returns, and {!finish} emits the flushed packets.  No
    other call emits. *)

val shards : t -> int

val feed_arena : t -> Logsys.Arena.slice -> unit
(** Process one segment (one slice), in arrival order.  Rows with a
    negative node id are ignored; every other row is copied into its
    shard's row store, and copied once more, into the shard's scratch
    arena, when its packet is evicted; no record is built for it.  The slice is read until this returns.
    Every flow the segment evicts is emitted before this returns;
    emission depends only on the concatenation of segments, not on how
    they are chunked.  A failure — raised by [emit], or by a worker — is
    re-raised from this and every later call, after all worker domains
    are joined.
    @raise Invalid_argument after {!finish}. *)

val feed : t -> Logsys.Record.t array -> unit
(** {!feed_arena} over records. *)

val finish : t -> summary
(** Join the workers, flush every still-open packet (emitted in
    ascending key order), and return the final summary.  Idempotent; the
    stream accepts no further [feed]. *)

val summary : t -> summary
(** Counters so far, without finishing.  Nothing waits and nothing is
    emitted: every evicted flow already was.  Totals sum over shards, so
    [peak_frontier_events] (a sum of per-shard peaks) is an upper bound
    on the one-shard peak; [segments] counts feed calls. *)

val processed : t -> int
(** Records processed so far — what {!Logsys.Log_io.Mseg.skip} needs to
    fast-forward a reopened input to the checkpoint position. *)

val checkpoint : t -> out_channel -> unit
(** Serialize the live state of every shard as one v2 checkpoint; emits
    nothing.  Only meaningful before {!finish}. *)

val checkpoint_file : t -> string -> (unit, Error.t) result
(** {!checkpoint} to [path ^ ".tmp"], then rename it over [path], so a
    failed or interrupted write never damages the previous checkpoint.
    [Error (Io _)] when the temporary file cannot be written or
    renamed. *)

val resume :
  ?config:Config.t ->
  in_channel ->
  sink:int ->
  emit:(emitted -> unit) ->
  (t, Error.t) result
(** Rebuild a stream from a v2 checkpoint into [config.shards] shards,
    re-hashing the restored frontier and evicted keys (the shard count
    need not match the checkpoint's).  The checkpoint's watermark,
    retention and semantic flags ([use_intra]/[use_inter]/[provenance])
    always win; passing [?config] whose flags disagree with them is an
    [Error.Bad_checkpoint] — resuming under different semantics would
    silently change what the reconstruction means.  All restored header
    fields are validated; nonsensical values (negative counters,
    [peak-frontier] below the restored frontier, shard totals that
    disagree with the clock), any other header, and v1 checkpoints are
    rejected with [Error.Bad_checkpoint]. *)

val resume_file :
  ?config:Config.t ->
  string ->
  sink:int ->
  emit:(emitted -> unit) ->
  (t, Error.t) result
