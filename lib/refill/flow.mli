(** Reconstructed per-packet event flows.

    A flow is the ordered list of events REFILL proved happened to one
    packet — logged events interleaved with inferred lost events, rendered
    in the paper's notation with inferred events in square brackets, e.g.
    ["1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"] (§IV.C case 1).

    {2 Layout}

    A flow is packed: four ints per item, in parallel arrays, and no
    per-item block.  Batch keeps every flow until the global merge, so
    what a flow costs is what a run's heap holds.  Per item:

    - [nodes.(k)]: the node the event happened on;
    - [codes.(k)]: its label, whether it was inferred, whether it has a
      payload, and the state it entered, packed in one int;
    - [peers.(k)]: the peer its payload names (for recv/dup/overflow the
      sender, for trans/ack/timeout the target; [0] otherwise) — the
      engine's payload ({!Protocol});
    - [rows.(k)]: the logged item's row — its record's row in the
      {!Logsys.Arena.Packets} index the flow was reconstructed from, or,
      for a stream flow, its record's global stream position; [-1] for
      inferred items and for items from elsewhere.  The global merge
      ({!Global_flow}) reads these instead of searching the logs for the
      record.

    A flow has at most one arena ({!t.arena}): the index's for a batch
    flow, the merge accumulator's for a stream flow the incremental merge
    took in ({!with_rows}), none for a stream flow as emitted.  A logged
    item with a row of that arena reads its record there; every other
    payload is rebuilt from the item's label, node and peer and the
    flow's packet key, with [true_time = nan] and [gseq = -1].

    {2 The item view}

    {!items} and {!item} rebuild {!item} records from the arrays (and the
    arena): a batch flow's logged payloads are [Record.equal] to their
    index rows.  The renderer, {!Classify.classify} and {!length} read
    the arrays and never build the view. *)

type item = (Protocol.label, Logsys.Record.t) Engine.item

type t = private {
  origin : int;
  seq : int;
  stats : Engine.stats;
  prov : Provenance.t array;
      (** Per-item provenance when the run collected it
          ({!Config.t.provenance}): [prov.(k)] explains item [k].  [[||]]
          when provenance was off. *)
  nodes : int array;
  codes : int array;
  peers : int array;
  rows : int array;
  arena : Logsys.Arena.t option;
      (** Where logged items' records are read from, by their rows. *)
}

val of_items :
  ?arena:Logsys.Arena.t ->
  ?rows:int array ->
  origin:int ->
  seq:int ->
  stats:Engine.stats ->
  ?prov:Provenance.t array ->
  item list ->
  t
(** The one constructor for hand-built flows (tests, figures, examples).
    Each item keeps its node, label, flags, state and the peer its
    payload names; the payload itself is not kept, so an item's payload
    must be on the item's node and of its label's kind to read back
    unchanged.  [rows] (default: none, [-1] each) gives each item a row
    for the global merge; an item without one is never matched against a
    node's log.  With [arena], an item that has a row reads its record
    there.
    @raise Invalid_argument unless [rows] has one entry per item. *)

(** How {!Reconstruct} packs the engine's emissions: a per-domain buffer
    the engine's [emit] callback fills field by field, with no item
    record, copied out into one flow whose arrays are its own.  Like the
    kernel's other scratch, it serves one reconstruction per domain at a
    time. *)
module Builder : sig
  type b

  val get : unit -> b
  (** The calling domain's buffer, emptied. *)

  val push :
    b ->
    node:int ->
    label:Protocol.label ->
    payload:int option ->
    inferred:bool ->
    entered:Fsm_state.t ->
    unit
  (** Pack one emitted item's fields ({!Engine.process}'s [emit]); its
      payload is its peer. *)

  val finish :
    b ->
    origin:int ->
    seq:int ->
    stats:Engine.stats ->
    prov:Provenance.t array ->
    rows:int array ->
    Logsys.Arena.t option ->
    t
  (** The flow of the items pushed since {!get}; [rows] has one entry
      per item. *)
end

val with_rows : t -> arena:Logsys.Arena.t -> int array -> t
(** The same flow with other merge rows, of [arena] (how the incremental
    merge points a stream flow at its own rows). *)

val packet_key : t -> int * int

val length : t -> int

(** {2 Per-item reads} *)

val node : t -> int -> int

val label : t -> int -> Protocol.label

val inferred : t -> int -> bool

val inferred_bit : int
(** [codes.(k) land inferred_bit <> 0] iff item [k] is inferred. *)

val entered : t -> int -> Fsm_state.t

val row : t -> int -> int
(** [rows.(k)]. *)

val find_entered : t -> Fsm_state.t -> int
(** The first item that entered the state, or [-1]. *)

val rfind_entered : t -> Fsm_state.t -> int
(** The last item that entered the state, or [-1]. *)

val rfind_node : t -> int -> from:int -> int
(** The last item on the node at index [from] or later, or [-1]. *)

val peer : t -> int -> int option
(** The peer item [k]'s payload names, as [Record.peer] of the view's
    payload. *)

(** {2 The view} *)

val item : t -> int -> item

val items : t -> item list

val logged_items : t -> item list

val inferred_items : t -> item list

val last_item : t -> item option

(** {2 Rendering} *)

val add_to_buffer : Buffer.t -> t -> unit
(** The flow renderer: items joined by [", "], each ["1-2 recv"] (or
    ["gen@1"] without a link), inferred ones bracketed (["[1-2 recv]"]),
    {!Protocol.unknown_node} as [?]. *)

val item_to_string : t -> int -> string
(** Item [k], as {!add_to_buffer} renders it. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val nodes_visited : t -> int list
(** Nodes in order of first {!Protocol.holding} entry (the packet's hop
    path as reconstructed, origin first). *)

val to_sequence_diagram : t -> string
(** ASCII sequence diagram of the flow: one column per participating node
    (in hop order), one row per event; link events draw an arrow between
    the endpoints, inferred events are bracketed. *)
