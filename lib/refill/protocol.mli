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

    A packet is its rows of a {!Logsys.Arena.t}, and the engine reads
    three things of each: its node, its label (the row's kind tag) and
    the peer it names.  The engine payload is that peer: the sender for
    recv/dup/overflow, the target for trans/ack/timeout, [0] for gen and
    deliver.  An inferred event's peer is recovered by searching the
    packet's surviving rows (e.g. an inferred [recv] on [n] takes its
    sender from any logged [trans]/[ack]/[timeout] pointing at [n]); an
    unrecoverable peer is {!unknown_node}. *)

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

val tag_of_label : label -> int
(** The record kind tag ({!Logsys.Codec.tag_of_kind}) a label logs as. *)

val label_of_tag : int -> label

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
(** [-1]: placeholder peer when peer recovery cannot find the other
    endpoint. *)

val config :
  Logsys.Arena.t ->
  int array ->
  origin:int ->
  sink:int ->
  (label, int) Engine.config
(** Engine configuration for reconstructing the packet whose rows (of
    the arena) are given: its FSMs by role, its prerequisites, and each
    inferred event's peer.  The rows are the peer search pool, scanned
    once, lazily, by the first inferred event that needs a peer; where
    several rows name a peer, the first in node-scan order wins. *)

val pack_events :
  Logsys.Arena.t -> int array -> origin:int -> sink:int -> (label, int) Engine.input
(** The engine's packed input ({!Engine.Packed}) for one packet's rows,
    in node-scan order (nodes ascending, each node's rows in local write
    order, as {!Logsys.Arena.Packets.packet_rows} lists them) — the one
    packer every reconstruction goes through.  It reads the node, tag and
    peer columns only.  Per-node runs are merged along the forwarding
    chain the rows reveal — origin first, then each next hop — with
    stragglers after in node order.  Each node's local order is
    preserved, so the reconstruction is unchanged (the engine is
    insensitive to the cross-node interleaving); the causal order just
    means prerequisites are almost always already satisfied, so drives
    rarely cascade.  Each event's label, dense id ({!Fsm.label_id} via a
    per-role table), peer payload and prerequisite
    ({!Engine.config.prerequisites} semantics) are resolved inline, and
    [srcs.(i)] is the index in [rows] of the row event [i] logs. *)
