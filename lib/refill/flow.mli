(** Reconstructed per-packet event flows.

    A flow is the ordered list of events REFILL proved happened to one
    packet — logged events interleaved with inferred lost events, rendered
    in the paper's notation with inferred events in square brackets, e.g.
    ["1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"] (§IV.C case 1). *)

type item = (Protocol.label, Logsys.Record.t) Engine.item

type t = {
  origin : int;
  seq : int;
  items : item list;
  stats : Engine.stats;
  prov : Provenance.t array;
      (** Per-item provenance when the run collected it
          ({!Config.t.provenance}): [prov.(k)] explains the [k]-th element
          of [items].  [[||]] when provenance was off. *)
}

val packet_key : t -> int * int

val logged_items : t -> item list

val inferred_items : t -> item list

val length : t -> int

val add_to_buffer : Buffer.t -> t -> unit
(** The flow renderer: items joined by [", "], each ["1-2 recv"] (or
    ["gen@1"] without a link), inferred ones bracketed (["[1-2 recv]"]),
    {!Protocol.unknown_node} as [?]. *)

val item_to_string : item -> string
(** One item, as {!add_to_buffer} renders it. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val pp : Format.formatter -> t -> unit

val last_item : t -> item option

val nodes_visited : t -> int list
(** Nodes in order of first {!Protocol.holding} entry (the packet's hop
    path as reconstructed, origin first). *)

val to_sequence_diagram : t -> string
(** ASCII sequence diagram of the flow: one column per participating node
    (in hop order), one row per event; link events draw an arrow between
    the endpoints, inferred events are bracketed. *)
