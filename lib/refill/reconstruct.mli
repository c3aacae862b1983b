(** The REFILL pipeline: collected logs → per-packet event flows.

    For each packet key appearing in the collected logs, its surviving
    records are gathered per node (local order preserved), merged with the
    origin's records first (the natural processing start; the connected
    engines are insensitive to the cross-node merge order), and run through
    the connected inference engines. *)

val packet :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  Logsys.Collected.t ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** Reconstruct one packet's event flow.  A packet with no surviving
    records yields an empty flow.  Its payloads live in the snapshot's
    packet index ({!Logsys.Collected.packets}) and each logged item's
    row is its record's row there.  [use_intra]/[use_inter] (default [true])
    are the ablation knobs: they disable the intra-node shortcut
    transitions and the inter-node prerequisite connections respectively.
    [provenance] (default [false]) collects the per-item {!Provenance.t}
    side-car into {!Flow.t.prov} and bumps the
    [refill_provenance_events_total] counters. *)

val of_records :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?provenance:bool ->
  ?positions:int array ->
  Logsys.Record.t array ->
  origin:int ->
  seq:int ->
  sink:int ->
  Flow.t
(** [of_records records ~origin ~seq ~sink] is {!packet} from an explicit
    record array instead of a {!Logsys.Collected} snapshot — the entry the
    streaming frontier ({!Stream}) uses when it evicts a packet.  The
    records must be in node-scan order (nodes ascending, each node's
    records in local write order), the order
    {!Logsys.Arena.Packets.packet_rows} lists a packet's rows in; the
    flow keeps the array as its payloads.  [positions.(i)], when given,
    is [records.(i)]'s global stream position, which becomes the row
    ({!Flow.row}) of the item that logs it; without it logged items have
    no row. *)

val run :
  ?config:Config.t ->
  Logsys.Collected.t ->
  sink:int ->
  emit:(Flow.t -> unit) ->
  unit
(** Reconstruct every packet found in the logs and hand each flow to
    [emit], in packet-key order.  This is the batch entry point over a
    record snapshot, reading its packet index
    ({!Logsys.Collected.packets}, built on first use) with each row mapped
    back to the snapshot's own record; {!run_arena} is the same run over
    an arena index read from a dump, whose rows materialize.  Flows point
    into the index: each logged item's {!Flow.row} is its record's row,
    and payloads are read back from the index's arena.

    Packets are independent, so large workloads are sharded over
    [config.jobs] worker domains (default
    [Domain.recommended_domain_count ()]); the emission sequence is
    identical to the serial run — order preserved, per-flow stats exact,
    and process-wide metric totals exact (flushes are batched per run into
    atomic counters).  Runs stay serial when [jobs <= 1] or when the
    workload is too small to amortize a domain spawn; tracing does not
    change that, and each [refill.packet] span is recorded on the domain
    that ran the packet.  On the parallel path flows are buffered and
    [emit] is called after the join, still in key order. *)

val run_arena :
  ?config:Config.t ->
  Logsys.Arena.Packets.t ->
  sink:int ->
  emit:(Flow.t -> unit) ->
  unit
(** {!run} over an arena-indexed packet index: same key order,
    parallelization policy, spans and metrics.  Each packet's rows
    materialize once ({!Logsys.Arena.get}) for the packer and go through
    the same engine run as {!of_records}, so flows are identical to the
    record path's; each flow keeps only its packed items, its rows and
    the index's arena.  The index (and its
    arena) must be fully built — it is shared read-only across worker
    domains. *)

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
