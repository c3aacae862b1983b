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
      sender, for trans/ack/timeout the target; [0] otherwise);
    - [rows.(k)]: the logged item's row — its record's row in the
      {!Logsys.Arena.Packets} index the flow was reconstructed from, or,
      for a stream flow, its record's global stream position; [-1] for
      inferred items and for items from elsewhere.  The global merge
      ({!Global_flow}) reads these instead of searching the logs for the
      record.

    Payloads live in one place per flow ({!payloads}): the arena a batch
    flow was reconstructed from, or the records a stream (or
    {!Reconstruct.of_records}) flow was reconstructed from.  An inferred
    payload is synthesized on demand from the item's label, node and peer
    and the flow's packet key, exactly as {!Protocol.make_config}
    synthesizes it.

    {2 The item view}

    {!items} and {!item} rebuild {!item} records: their payloads are
    [Record.equal] to the records the engine emitted, true time and
    [gseq] included.  The renderer, {!Classify.classify} and
    {!length} read the arrays and never build the view. *)

type item = (Protocol.label, Logsys.Record.t) Engine.item

(** Where a flow's payloads live. *)
type payloads =
  | Arena of Logsys.Arena.t
      (** A logged item's payload is row [rows.(k)] of this arena. *)
  | Records of Logsys.Record.t array * int array
      (** [(records, refs)]: item [k]'s payload is [records.(refs.(k))]
          when [refs.(k) >= 0]; otherwise it is synthesized. *)

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
  payloads : payloads;
}

val of_items :
  ?rows:int array ->
  origin:int ->
  seq:int ->
  stats:Engine.stats ->
  ?prov:Provenance.t array ->
  item list ->
  t
(** The one constructor for hand-built flows (tests, figures, examples):
    every payload is kept as given, so {!items} returns items equal to
    [items].  [rows] (default: none, [-1] each) gives each item a row for
    the global merge; an item without one is never matched against a
    node's log.
    @raise Invalid_argument unless [rows] has one entry per item. *)

(** How {!Reconstruct} packs the engine's emissions: a per-domain buffer
    the engine's [emit] callback fills, copied out into one flow. *)
module Builder : sig
  type b

  val get : unit -> b
  (** The calling domain's buffer, emptied. *)

  val push : b -> item -> unit
  (** Pack one emitted item. *)

  val finish :
    b ->
    origin:int ->
    seq:int ->
    stats:Engine.stats ->
    prov:Provenance.t array ->
    rows:int array ->
    payloads ->
    t
  (** The flow of the items pushed since {!get}; [rows] has one entry
      per item. *)
end

val with_rows : t -> int array -> t
(** The same flow with other merge rows (how the incremental merge maps
    stream positions to its own rows). *)

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

val item_to_string : item -> string
(** One item, as {!add_to_buffer} renders it. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val nodes_visited : t -> int list
(** Nodes in order of first {!Protocol.holding} entry (the packet's hop
    path as reconstructed, origin first). *)

val to_sequence_diagram : t -> string
(** ASCII sequence diagram of the flow: one column per participating node
    (in hop order), one row per event; link events draw an arrow between
    the endpoints, inferred events are bracketed. *)
