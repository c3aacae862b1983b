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

    This module is the model only.  The reconstruction kernel
    ({!Reconstruct}) reads three things of each logged event — its node,
    its label (the row's kind tag) and the peer it names — and packs
    them for the engine with this module's label ids and prerequisite
    rules.  The engine payload is that peer: the sender for
    recv/dup/overflow, the target for trans/ack/timeout, [0] for gen and
    deliver.  An inferred event's peer is recovered from the packet's
    surviving rows by the kernel (e.g. an inferred [recv] on [n] takes
    its sender from a logged [trans]/[ack]/[timeout] pointing at [n]); an
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

val label_id_of_tag : role -> int -> int
(** The dense id ({!Fsm.label_id}) in the role's FSM of the label a
    record kind tag logs as, or [-1] when the role's FSM never uses it:
    an array read, from tables built when this module initializes. *)

(** {2 Inter-node prerequisites} *)

val prerequisite_node : node:int -> int -> int -> int
(** [prerequisite_node ~node tag peer]: the node an event of kind [tag]
    on [node], naming [peer], waits for — a reception's sender must have
    sent, an ACK's receiver must hold the packet — or [-1] when it waits
    for none (other kinds, a peer that is the node itself, or
    {!unknown_node}). *)

val prerequisite_state : int -> Fsm_state.t
(** The state {!prerequisite_node} must have visited: {!holding} for an
    ACK, {!sent} for a reception. *)

val prerequisites :
  node:int -> label:label -> payload:int option -> (int * Fsm_state.t) list
(** {!Engine.config.prerequisites} for this model, whose payload is the
    peer an event names: {!prerequisite_node} and {!prerequisite_state}
    as a list of at most one pair. *)
