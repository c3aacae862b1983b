(** The REFILL pipeline: collected logs → per-packet event flows.

    A packet is its rows of an arena, in node-scan order (nodes
    ascending, each node's rows in local write order).  Every packet,
    batch or stream, goes through {!of_rows}: one packer
    ({!Protocol.pack_events}) reads the rows' node, tag and peer columns,
    merges the per-node runs along the forwarding chain (origin first;
    the connected engines are insensitive to the cross-node merge order),
    and the connected inference engines run over it.  No record is built
    per row. *)

val of_rows :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  Logsys.Arena.t ->
  int array ->
  ids:int array ->
  keep_arena:bool ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** [of_rows arena rows ~ids ~keep_arena ~origin ~seq ~sink] reconstructs
    the packet whose rows of [arena] are [rows], in node-scan order.
    The item that logs [rows.(i)] gets [ids.(i)] as its {!Flow.row}.
    With [keep_arena] the flow reads its logged payloads from [arena]
    ({!Flow.t.arena}), so [ids] must then be [rows]; without it the flow
    keeps no arena and [arena] may be reused once this returns.  A batch
    run passes index rows and keeps the index's arena; a stream eviction
    passes a scratch copy of the packet's rows and their global stream
    positions as ids.  [use_intra]/[use_inter] (default [true]) are the
    ablation knobs: they disable the intra-node shortcut transitions and
    the inter-node prerequisite connections respectively.  [provenance]
    (default [false]) collects the per-item {!Provenance.t} side-car into
    {!Flow.t.prov} and bumps the [refill_provenance_events_total]
    counters. *)

val packet :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  Logsys.Arena.Packets.t ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** Reconstruct one packet of an index ({!of_rows} over its
    {!Logsys.Arena.Packets.packet_rows}, keeping the index's arena), in
    one [refill.packet] span when tracing is on.  A packet with no
    surviving records yields an empty flow.  A snapshot's index is
    {!Logsys.Collected.packets}. *)

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
