(** The network-wide event flow (§II, Eq. 1).

    The paper defines the event flow over *all* events in the network, not
    per packet.  Cross-packet ordering information comes from exactly one
    place in unsynchronized logs: two events logged by the *same node* are
    ordered by that node's log.  This module merges the per-packet
    reconstructed flows into one global flow that

    - preserves every per-packet flow order exactly (REFILL's canonical
      causal linearization of each packet), and
    - honours as many cross-packet per-node log constraints as possible.

    The two families can disagree on *concurrent* events (a flow may
    linearize two causally unrelated events opposite to their log
    positions); such node-log constraints are relaxed and counted — they
    indicate concurrency, not errors.  Events unrelated by any remaining
    constraint are ordered by their position within their recording node's
    log (a cheap, timestamp-free progress proxy). *)

type stats = {
  events : int;
  logged : int;
  inferred : int;
  relaxed : int;
      (** Cross-packet node-log constraints dropped because they opposed a
          per-packet linearization (concurrency, not error). *)
}

(** Where the merge reads per-node logs from: an arena-indexed packet
    index ({!Logsys.Arena.Packets.node_rows}), whose alignment pass reads
    columns and never materializes a record. *)
type log_source = Arena_index of Logsys.Arena.Packets.t

type event = { flow : Flow.t; pos : int }
(** One emitted event: item [pos] of [flow] ({!Flow.item} builds its
    view). *)

val merge :
  ?emit_prov:(Provenance.t -> unit) ->
  Logsys.Collected.t ->
  flows:Flow.t array ->
  emit:(event -> unit) ->
  stats
(** [merge collected ~flows ~emit] computes the global flow and hands each
    event to [emit], in global-flow order.  [collected] must be the same
    snapshot the flows were reconstructed from (its per-node logs provide
    the cross-packet constraints).  Every flow's items appear in their
    original relative order.  This is {!merge_from} over the snapshot's
    own packet index ({!Logsys.Collected.packets}), the one
    {!Reconstruct.run} reads and the one its flows' rows point into, so
    no second copy is made.

    Log alignment reads each logged item's row ({!Flow.row}): the item's
    (packet, node) queue is matched greedily, in flow order, against the
    node's rows of the packet, each item taking the first row at or after
    the previous match that holds the same record as its own row.  An
    item without a row (a hand-built flow) is never matched.

    [emit_prov], when given, is called in lockstep with [emit] with each
    item's merge-refined provenance: the flow's own entry
    ({!Flow.t.prov}, synthesized when the flows carry none), except that
    an event released by stall recovery becomes
    {!Provenance.Stall_recovery} and a logged event whose record never
    aligned with its node's log becomes {!Provenance.Anchor_carry}.
    Evidence indices stay in their packet's own record-index space. *)

val merge_from :
  ?emit_prov:(Provenance.t -> unit) ->
  log_source ->
  flows:Flow.t array ->
  emit:(event -> unit) ->
  stats
(** {!merge} over an arena index, which must be the one the flows were
    reconstructed from ({!Reconstruct.run_arena} over the same index), so
    that their rows are its rows. *)

(** Incremental merge mode for the streaming pipeline: accumulate record
    segments and evicted flows as they arrive, then run the batch merge
    machinery once at the end of the stream.  On the same inputs the
    emission sequence is identical to {!merge} over the batch
    reconstruction — the accumulator keeps every record in an arena in
    arrival order (so each node's rows stay in its write order) and
    re-sorts flows to packet-key order, so item ids, anchors and heap
    tie-breaks all coincide. *)
module Incremental : sig
  type t

  val create : ?n_nodes:int -> unit -> t
  (** [n_nodes] is the node count known up front (it grows to cover every
      node seen). *)

  val add_arena : t -> Logsys.Arena.slice -> unit
  (** Append a stream segment, copying its rows' columns.  Segments must
      preserve each node's local record order across calls; rows with a
      negative node id are ignored. *)

  val add_records : t -> Logsys.Record.t array -> unit
  (** {!add_arena} over records. *)

  val add_flow : t -> Flow.t -> unit
  (** Register one evicted flow (in eviction order).  Its rows must be
      the global stream positions {!Stream} gives them, for a stream fed
      exactly the segments added here from its start (not resumed from a
      checkpoint); each is mapped to this accumulator's own row, and the
      flow reads its logged payloads from the accumulator's arena
      ({!Flow.with_rows}). *)

  val finish :
    ?emit_prov:(Provenance.t -> unit) ->
    t ->
    emit:(event -> unit) ->
    stats
  (** Merge everything accumulated.  The accumulator must not be reused
      afterwards.  [emit_prov] as in {!merge}. *)
end
