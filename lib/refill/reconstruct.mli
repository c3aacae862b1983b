(** The REFILL pipeline: collected logs → per-packet event flows.

    A packet is its rows, in node-scan order (nodes ascending, each
    node's rows in local write order).  Every packet, batch or stream,
    goes through one kernel.  A gatherer reads the node, kind tag and
    peer of each row, and the id its logged item will carry, into the
    calling domain's scratch: {!packet} from an index's rows (ids are the
    rows), {!of_columns} from a stream eviction's columns (ids are stream
    positions), ordered by node with a stable sort.  The kernel then
    packs those columns for the engine, merging the per-node runs along
    the forwarding chain (origin first; under loss the engines' output
    depends on this cross-node order, so every path uses it), recovers
    inferred events' peers by scanning them, runs the connected inference
    engines ({!Engine.process}), and packs each emitted item straight
    into the domain's {!Flow.Builder}.  It allocates only the arrays its
    flow keeps: no record per row, no payload box per row or item (peers
    are interned per domain), no closure per packet.

    {b One reconstruction per domain at a time.}  The scratch, the
    engine's pool and the builder belong to the calling domain, and its
    systhreads share them: two systhreads of one domain must not
    reconstruct at once.  serve feeds its stream from one loop thread and
    the CLI runs one thread, so both keep this true. *)

val packet :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  Logsys.Arena.Packets.t ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** Reconstruct one packet of an index from its
    {!Logsys.Arena.Packets.packet_rows}, in one [refill.packet] span when
    tracing is on.  The item that logs a row gets the row as its
    {!Flow.row}, and the flow reads its logged payloads from the index's
    arena ({!Flow.t.arena}).  A packet with no surviving records yields
    an empty flow.  A snapshot's index is {!Logsys.Collected.packets}.
    [use_intra]/[use_inter] (default [true]) are the ablation knobs: they
    disable the intra-node shortcut transitions and the inter-node
    prerequisite connections respectively.  [provenance] (default
    [false]) collects the per-item {!Provenance.t} side-car into
    {!Flow.t.prov} and bumps the [refill_provenance_events_total]
    counters. *)

val of_columns :
  use_intra:bool ->
  use_inter:bool ->
  provenance:bool ->
  nodes:int array ->
  tags:int array ->
  peers:int array ->
  ids:int array ->
  int ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** [of_columns ~nodes ~tags ~peers ~ids n ~origin ~seq ~sink]
    reconstructs the packet whose [n] rows are entries [0, n) of the
    columns: each row's node, kind tag ({!Logsys.Codec.tag_of_kind}) and
    peer column.  Each node's rows must be in its local write order; the
    nodes may interleave in any way (a stream eviction passes arrival
    order), and a stable sort by node restores node-scan order.  The item
    that logs row [i] gets [ids.(i)] as its {!Flow.row}; the flow keeps
    no arena.  The columns are read before this returns and never kept.
    In one [refill.packet] span when tracing is on, as {!packet}. *)

val of_records :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  Logsys.Record.t array ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** [of_records records ~origin ~seq ~sink] indexes [records] and runs
    {!packet} on the index: the entry for hand-written logs (tables,
    examples, tests).  Each node's records must be in its local write
    order; the cross-node order does not matter, and records of other
    packets are ignored.  The flow keeps the index's arena.
    @raise Failure when a record's node is negative. *)

val run :
  ?config:Config.t ->
  Logsys.Collected.t ->
  sink:int ->
  emit:(Flow.t -> unit) ->
  unit
(** {!run_arena} over the snapshot's packet index
    ({!Logsys.Collected.packets}, built on first use). *)

val run_arena :
  ?config:Config.t ->
  Logsys.Arena.Packets.t ->
  sink:int ->
  emit:(Flow.t -> unit) ->
  unit
(** Reconstruct every packet of the index ({!packet}) and hand each flow
    to [emit], in packet-key order.  Flows point into the index: each
    logged item's {!Flow.row} is its record's row, and payloads are read
    back from the index's arena.

    Packets are independent, so large workloads are sharded over
    [config.jobs] worker domains (default
    [Domain.recommended_domain_count ()]); the emission sequence is
    identical to the serial run — order preserved, per-flow stats exact,
    and process-wide metric totals exact (flushes are batched per run into
    atomic counters).  Runs stay serial when [jobs <= 1] or when the
    workload is too small to amortize a domain spawn; tracing does not
    change that, and each [refill.packet] span is recorded on the domain
    that ran the packet.  On the parallel path flows are buffered and
    [emit] is called after the join, still in key order.  The index (and
    its arena) must be fully built — it is shared read-only across
    worker domains. *)

type summary = {
  packets : int;
  logged_events : int;
  inferred_events : int;
  skipped_events : int;
}

val empty_summary : summary

val summary_add : summary -> Flow.t -> summary
(** Fold one flow into a running summary — what streaming consumers use to
    summarize without materializing the flow sequence. *)

val summarize : Flow.t list -> summary
