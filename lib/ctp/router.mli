(** CTP routing engine for one node.

    Implements the tree construction of §V.A.3: every node advertises its
    path ETX in periodic beacons; on hearing a beacon from [n1], node [n2]
    adopts [n1] as parent iff
    [pathETX(n2) > pathETX(n1) + linkETX(n1, n2)] (with a small hysteresis to
    damp parent thrashing).  The sink advertises path ETX 0; all others start
    at infinity.  Stale advertised costs under lossy beacons are what create
    the transient routing loops the paper observes (duplicate losses). *)

type t

val create :
  self:Net.Packet.node_id ->
  is_sink:bool ->
  ?hysteresis:float ->
  ?estimator_alpha:float ->
  unit ->
  t
(** [hysteresis] (default 0.75 ETX) is the minimum improvement required to
    switch away from the current parent. *)

val self : t -> Net.Packet.node_id

val is_sink : t -> bool

val parent : t -> Net.Packet.node_id option
(** Current parent; [None] until a route is known (or always for the sink). *)

val path_etx : t -> float
(** Advertised path ETX: 0 for the sink, parent's advertised cost plus link
    ETX otherwise; [infinity] with no route. *)

val has_route : t -> bool

val on_beacon_received :
  t -> from:Net.Packet.node_id -> advertised_etx:float -> unit
(** Process a received routing beacon: refresh the neighbor's link estimator
    with a success, record its advertised cost, and re-run parent
    selection. *)

val on_beacon_missed : t -> from:Net.Packet.node_id -> unit
(** A beacon window from a known neighbor elapsed without reception: fold a
    miss into its estimator and re-run parent selection (the link looks
    worse now). Unknown neighbors are ignored. *)

val on_data_tx_outcome :
  t -> to_:Net.Packet.node_id -> acked:bool -> unit
(** Data-plane feedback: fold unicast (non-)ACK outcomes into the link
    estimator of the parent used, like CTP's four-bit link estimation. *)

val neighbor_count : t -> int

val link_etx : t -> Net.Packet.node_id -> float option

val reset : t -> unit
(** Forget everything (neighbor table, parent) — the node rebooted and its
    RAM routing state is gone. The sink stays a sink. *)
