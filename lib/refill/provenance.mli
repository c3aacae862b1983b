(** Per-event reconstruction provenance: the auditable answer to "why does
    REFILL believe this event happened?".

    Every emitted event — logged or inferred — can carry one compact
    provenance value recording which mechanism produced it, the FSM
    transition taken, the input records it was derived from, and a coarse
    confidence class.  Provenance is collected behind {!Config.t}'s
    [provenance] flag and side-cars the event stream (see {!Flow.t});
    nothing about {!Logsys.Record.t} or the item shape changes, and with
    the flag off the pipeline pays nothing.

    Evidence indices index the packet's own rows in *node-scan order* —
    nodes ascending, each node's rows in local write order, the order
    {!Logsys.Arena.Packets.packet_rows} lists a packet's rows in and
    the reconstruction kernel ({!Reconstruct}) consumes them in.  A stream
    eviction restores the same order before reconstructing, so batch and streaming
    runs produce identical provenance for the same input. *)

(** How the event came to be in the reconstruction. *)
type mechanism =
  | Logged  (** The event is an input record that fired a normal transition. *)
  | Intra_inference
      (** A lost event bridged by an intra-node shortcut transition
          (§IV.B): a later record of the same node proves it happened. *)
  | Inter_inference
      (** A lost event inferred to satisfy an inter-node prerequisite: a
          record of *another* node proves this node must have progressed. *)
  | Stall_recovery
      (** Global merge only: the event was released by breaking a
          soft-constraint cycle ({!Global_flow}), so its global position is
          a forced choice, not evidence. *)
  | Anchor_carry
      (** Global merge only: a logged event whose record could not be
          aligned with its node's log, so its global position was carried
          from a neighbouring event's anchor. *)

(** Coarse trust classes, ordered from most to least trustworthy.  Each
    mechanism maps to one class ({!confidence_of}); consumers that rank
    hypotheses should treat the class, not the mechanism, as the score. *)
type confidence = Certain | High | Medium | Low

type t = private int
(** One provenance value.  The representation is a single immediate int
    (mechanism, confidence, the FSM transition, and up to two evidence
    indices bit-packed), so a [t array] side-car is unboxed and recording
    provenance never allocates — use the accessors below.  Structural
    equality behaves as for a record of the fields, except that the two
    evidence slots are stored in construction order: values built with the
    same evidence in a different order compare unequal even though
    {!evidence} presents both sorted.

    Field limits from the packing: FSM states up to 125 (protocol FSMs
    have a handful), evidence indices up to ~2 million (a packet's record
    count); out-of-range values saturate instead of corrupting. *)

val mechanism : t -> mechanism

val confidence : t -> confidence

val src : t -> Fsm_state.t
(** FSM state the node's engine left ([-1] if unknown). *)

val dst : t -> Fsm_state.t
(** FSM state the transition entered. *)

val evidence : t -> int array
(** Indices of the input records this event was derived from, in the
    packet's node-scan-order record array, as a fresh array of length 0-2,
    sorted ascending.  A [Logged] event's single evidence index is its own
    record; inferred events carry the records that forced the inference.
    Always non-empty for events produced by the engine; may be empty only
    for synthesized defaults (see {!Global_flow.merge}). *)

val mechanism_name : mechanism -> string
(** ["logged"], ["intra-inference"], ["inter-inference"],
    ["stall-recovery"], ["anchor-carry"] — the stable strings used in
    metrics labels, JSON, and [refill explain]. *)

val confidence_name : confidence -> string

val confidence_of : mechanism -> confidence
(** The default class per mechanism: [Logged] is [Certain],
    [Intra_inference] is [High] (local evidence), [Inter_inference] and
    [Anchor_carry] are [Medium] (remote or positional evidence),
    [Stall_recovery] is [Low]. *)

val make : mechanism -> src:Fsm_state.t -> dst:Fsm_state.t -> evidence:int array -> t
(** Provenance with {!confidence_of} applied.  At most the first two
    evidence indices are kept (no engine mechanism produces more). *)

val make2 :
  mechanism -> src:Fsm_state.t -> dst:Fsm_state.t -> e1:int -> e2:int -> t
(** Allocation-free constructor for the engine hot path: evidence as up to
    two indices with [-1] meaning absent, stored verbatim ({!evidence}
    sorts and dedups on read, off the hot path). *)

val with_mechanism : mechanism -> t -> t
(** Reclassify an event (the merge does this for stall recovery and anchor
    carry); confidence is re-derived with {!confidence_of}. *)

val with_confidence : confidence -> t -> t
(** Override the confidence class, keeping everything else. *)

val to_string : ?state_name:(Fsm_state.t -> string) -> t -> string
(** One line, e.g.
    ["intra-inference holding->sent (high) evidence=[2;5]"].
    [state_name] defaults to printing the raw state int. *)
