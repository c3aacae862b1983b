(** Collected logs — the input REFILL actually sees.

    A snapshot of every node's (possibly lossified) log.  Provides the
    per-packet view the inference engines consume: for one packet, each
    node's surviving records in local write order.  No global timestamps
    are exposed. *)

type t

val of_node_logs : Record.t array array -> t
(** Index = node id: [node_logs.(i)] is node [i]'s log, in write order,
    and holds only records with [node = i] — every producer (the loggers,
    {!lossify}, the in-band log transport) builds it that way, and the
    per-packet index groups records by their [node] field (building it
    raises [Failure] on a node outside [0, n_nodes)).  The arrays are not
    copied; callers hand over ownership. *)

val of_logger : Logger.t -> t
(** Lossless snapshot of a live log store. *)

val lossify : Loss_model.config -> Prelude.Rng.t -> t -> t
(** Apply a loss model to every node's log; the input is unchanged. *)

val n_nodes : t -> int

val node_log : t -> Net.Packet.node_id -> Record.t array

val total : t -> int

val packets : t -> Arena.Packets.t
(** The snapshot's per-packet index: an {!Arena.Packets} index over a
    node-major arena copy of the node logs, built once on first use and
    read-only afterwards (safe to share across domains once built).  Every
    per-packet view below reads it, and so does
    [Refill.Global_flow.merge].  A zero-node snapshot gets an empty
    index. *)

val packet_keys : t -> (Net.Packet.node_id * int) list
(** Distinct [(origin, seq)] packet keys appearing anywhere, sorted:
    {!Arena.Packets.keys} of {!packets}. *)

val packet_records : t -> origin:Net.Packet.node_id -> seq:int -> Record.t array
(** One packet's surviving records, flat, in node-scan order: nodes
    ascending, each node's records contiguous in local write order — the
    order {!Arena.Packets.packet_rows} lists the rows in.  Each row maps
    back to the snapshot's own record (no copy); the array is fresh, so
    the caller owns it.  [[||]] for unknown packets.  This is the view the
    reconstruction hot path consumes; {!events_of_packet} derives the
    grouped view from it. *)

val events_of_packet :
  t ->
  origin:Net.Packet.node_id ->
  seq:int ->
  (Net.Packet.node_id * Record.t list) list
(** Per-node surviving records of one packet, each list in local log order;
    nodes with no records for the packet are omitted. Sorted by node id. *)

val merged_concat : t -> Record.t list
(** All records, node 0's log then node 1's, etc. — a valid merge (per-node
    order preserved) with no cross-node information, the adversarial input
    of the paper's step 1. *)

val merged_by_time : t -> Record.t array
(** All records in true-time order ([Record.compare_by_time]; stable, so
    ties keep node-scan order).  This is the arrival-order view a streaming
    consumer would see — the order {!Log_io.save} emits under
    [~time_order:true] so the {!Refill.Stream} frontier stays small.  Uses
    ground-truth timestamps, so it is a simulator-side convenience, not
    something the reconstruction may consume. *)

val merged_round_robin : t -> Record.t list
(** Interleave one record per node per round — another valid merge used to
    check order-insensitivity of the reconstruction. *)
