(** Loss-cause classification from reconstructed event flows (§V.B).

    The verdict is derived from where the packet's *frontier* ended:

    - a {!Protocol.delivered} entry → delivered to the backbone (the
      server-outage split is applied later, from the operations log, as the
      paper did);
    - a {!Protocol.dup_dropped} / {!Protocol.overflow_dropped} entry →
      duplicate / overflow loss at that node;
    - otherwise the *last holder* (latest [holding] entry in the flow)
      decides: still holding with a logged [recv] → received loss; still
      holding with an *inferred* [recv] (only the sender's ACK proves
      reception) → acked loss; progressed to [sent]/[timed-out] → timeout
      loss on that node's outgoing link (the paper's "lost while
      transmitting", Table II case 3);
    - a flow with no information (e.g. bare [gen]) → unknown. *)

type verdict = {
  cause : Logsys.Cause.t;
  loss_node : int option;
      (** Loss position: the node where the packet died ([None] when
          delivered or unknown). *)
  next_hop : int option;
      (** For timeout losses: the intended receiver of the failed link. *)
}

val classify : Flow.t -> verdict
(** Delivered flows report [cause = Delivered]. *)

val is_delivered : Flow.t -> bool
