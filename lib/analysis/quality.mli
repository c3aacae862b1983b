(** Flow-quality accounting: aggregate per-event provenance
    ({!Refill.Provenance}) into per-flow, per-node, and per-link
    scorecards.

    This is the operator-facing answer to "how much of the reconstruction
    is measurement and how much is inference, and where?".  Feed it flows
    from a provenance-enabled run ({!Refill.Config.t.provenance}); flows
    without a provenance side-car are still accepted — their events are
    attributed from the [inferred] flag alone (logged / intra-inference),
    which loses the inter/intra distinction but keeps the totals right.

    The accumulator API mirrors {!Refill.Reconstruct.summary_add} so
    streaming consumers can score flows as they are emitted without
    materializing them. *)

(** One flow's scorecard. *)
type flow_score = {
  f_origin : int;
  f_seq : int;
  f_events : int;
  f_inferred : int;
  f_complete : bool;
      (** The classifier reached a verdict ({!Refill.Classify}): the flow
          tells a complete story even if parts of it are inferred. *)
  f_min_confidence : Refill.Provenance.confidence;
      (** The flow's weakest event — the chain is only as trustworthy as
          its least-evidenced link.  [Certain] for all-logged flows. *)
}

(** One node's scorecard: how much of what we claim about this node was
    actually in its log. *)
type node_score = { n_node : int; n_events : int; n_inferred : int }

(** One directed link's gap evidence: every inferred link event is a
    record REFILL proved was lost, so [l_inferred / l_events] estimates
    the link's log-loss rate (§V's per-link view). *)
type link_score = { l_src : int; l_dst : int; l_events : int; l_inferred : int }

type t = {
  packets : int;
  events : int;
  inferred : int;
  complete : int;
  incomplete : int;
  mechanism_totals : (Refill.Provenance.mechanism * int) list;
      (** Events per mechanism, every mechanism listed (possibly 0). *)
  confidence_totals : (Refill.Provenance.confidence * int) list;
  flows : flow_score list;  (** Flow order of [add] calls. *)
  nodes : node_score list;  (** Ascending node id. *)
  links : link_score list;  (** Ascending (src, dst). *)
}

val fraction_inferred : t -> float
(** [inferred / events]; [0.] when empty. *)

val link_loss_rate : link_score -> float

type acc

val create : unit -> acc

val add : acc -> Refill.Flow.t -> unit

val finish : acc -> t
(** Also publishes the [refill_flow_quality_*] metrics (flows scored,
    complete/incomplete totals, fraction-inferred gauge).  The accumulator
    may keep being fed and finished again; metrics count each [finish]'s
    totals once per call. *)

val to_json : t -> Refill_obs.Json.t
(** Stable shape: [{schema: "refill-quality-v1", packets, events,
    inferred, fraction_inferred, complete, incomplete, mechanisms: {...},
    confidences: {...}, nodes: [...], links: [...], flows: [...]}]. *)

val to_string : t -> string
(** Multi-line operator summary (totals, mechanism mix, worst nodes and
    links). *)
