(** The per-packet protocol model for the collection network.

    Instantiates the generic inference engine for CitySee's CTP data plane:
    each node handling a packet is modelled by a small FSM whose shape
    depends on the node's *role* for that packet (origin / forwarder /
    sink), and inter-node prerequisites encode the protocol semantics of
    §III–IV:

    - [recv]/[dup]/[overflow] from [a] on [b] requires [a] to have reached
      {!sent} (a reception implies the corresponding transmission);
    - [ack recvd] toward [b] on [a] requires [b] to have reached {!holding}
      (the hardware ACK implies the receiver radio accepted the packet).

    Cycles ({!acked} [--recv-->] {!holding}) model loop re-receptions, so
    Table II's case 3/4 retransmission-after-ack patterns reconstruct
    correctly.

    Payloads are {!Logsys.Record.t}; inferred events carry synthesized
    records ([true_time = nan], [gseq = -1]) whose peer field is recovered
    by searching the packet's surviving records (e.g. an inferred [recv] on
    [n] takes its sender from any logged [trans]/[ack]/[timeout] pointing at
    [n]); an unrecoverable peer is {!unknown_node}. *)

type label =
  | L_gen
  | L_recv
  | L_dup
  | L_overflow
  | L_trans
  | L_ack
  | L_timeout
  | L_deliver

val label_name : label -> string

val label_of_kind : Logsys.Record.kind -> label

(** {2 States} *)

val init : Fsm_state.t  (** 0 — nothing known. *)

val holding : Fsm_state.t  (** 1 — node has the packet (gen or recv). *)

val sent : Fsm_state.t  (** 2 — handed to the MAC (trans). *)

val acked : Fsm_state.t  (** 3 — hardware ACK received. *)

val timed_out : Fsm_state.t  (** 4 — retransmissions exhausted. *)

val dup_dropped : Fsm_state.t  (** 5 — dropped by the duplicate cache. *)

val overflow_dropped : Fsm_state.t  (** 6 — dropped at a full queue. *)

val delivered : Fsm_state.t  (** 7 — sink pushed it to the backbone. *)

val n_states : int

val state_name : Fsm_state.t -> string

type role = Origin | Forwarder | Sink

val role_of : origin:int -> sink:int -> int -> role

val fsm_of_role : role -> label Fsm.t
(** The FSMs are built once per role and shared (they are immutable after
    construction), so their memoized query caches amortize across every
    packet ever reconstructed. *)

val precompute_fsms : unit -> unit
(** {!Fsm.precompute} all three role FSMs, making their caches complete
    and therefore safe to share read-only across worker domains.  This
    module already does it (and builds its per-role label-id tables)
    when it initializes, before any domain can exist, so callers never
    need to; the call is kept as an idempotent no-op for code that warms
    up explicitly. *)

val unknown_node : int
(** [-1]: placeholder peer when synthesis cannot recover the other
    endpoint. *)

val make_config :
  records:Logsys.Record.t array ->
  origin:int ->
  seq:int ->
  sink:int ->
  (label, Logsys.Record.t) Engine.config
(** Engine configuration for reconstructing one packet.  [records] are the
    packet's surviving records network-wide: the synthesis search pool,
    scanned once, lazily, by the first inferred event that needs a peer.
    Where several records name a peer, the first in array order wins. *)

val events_of_records :
  Logsys.Record.t list -> (int * label * Logsys.Record.t option) list
(** Map records to engine input events (node, label, payload). *)

(** Packed engine input: one packet's merged events as parallel arrays —
    node, label, dense FSM label id, payload, and inter-node prerequisite
    per event, all resolved in one pass.  The representation
    {!Engine.process}'s [Packed] input consumes; built by
    {!pack_events}. *)
type packed = {
  p_nodes : int array;
  p_labels : label array;
  p_ids : int array;
  p_payloads : Logsys.Record.t option array;
  p_pre_nodes : int array;  (** prerequisite peer node, [-1] = none *)
  p_pre_states : Fsm_state.t array;
  p_srcs : int array;
      (** Output slot -> index in the caller's node-scan-order record array
          (the causal merge permutes records; provenance evidence cites the
          original indices). *)
}

val pack_events : Logsys.Record.t array -> origin:int -> sink:int -> packed
(** Build the packed engine input from one packet's flat record array (in
    node-scan order: nodes ascending, each node's records in local write
    order, as {!Logsys.Arena.Packets.packet_rows} lists its rows) —
    the one packer every reconstruction goes through.  Per-node record
    runs are merged along the forwarding chain the records reveal — origin
    first, then each next hop — with stragglers after in node order.  Each
    node's local record order is preserved, so the reconstruction is
    unchanged (the engine is insensitive to the cross-node interleaving);
    the causal order just means prerequisites are almost always already
    satisfied, so drives rarely cascade.  Each event's label, dense id
    ({!Fsm.label_id} via a per-role table) and prerequisite
    ({!Engine.config.prerequisites} semantics) are resolved inline. *)
