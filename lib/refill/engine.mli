(** Connected inference engines and the transition algorithm (§IV.B–C).

    One FSM instance per node, connected by *inter-node prerequisite
    transitions*: before an event fires on one engine, every prerequisite
    state on other engines must have been reached — if a prerequisite node's
    logged events get it there they are consumed (in their local order), and
    any gap is bridged by inferring the lost events along the shortest
    normal path, recursively satisfying their own prerequisites (the
    cascading examples of Fig. 3).

    Prerequisites are *historical*: a prerequisite is satisfied if the
    remote instance has ever visited the required state, matching the
    paper's "t2 can occur only after t1 has occurred".

    The algorithm implements the four steps of §IV.B "Processing Events":
    1. fire normal transitions (driving prerequisite engines first);
    2. otherwise fire the intra-node transition, emitting its lost
       prerequisite events as inferred;
    3. events with no available transition are skipped;
    4. processing ends when all events are consumed.

    A run keeps its node instances, pending queues and tallies in a pool
    owned by the calling domain and reset when the run starts, and hands
    each emitted event's fields to its [emit] callback, so on {!Packed}
    input the engine itself allocates a few words per run and nothing per
    event (see {!process}). *)

type ('label, 'payload) item = {
  node : int;
  label : 'label;
  payload : 'payload option;  (** [None] possible for inferred events. *)
  inferred : bool;
      (** True for events *not* present in the input — the bracketed lost
          events of §IV.C. *)
  entered : Fsm_state.t;
      (** State the node's engine entered when this event fired — the hook
          the loss-cause classifier keys on. *)
}

type ('label, 'payload) config = {
  fsm_of : int -> 'label Fsm.t;
      (** The FSM modelling each node (may differ per node role); instances
          are created lazily at a node's first event. *)
  prerequisites :
    node:int ->
    label:'label ->
    payload:'payload option ->
    (int * Fsm_state.t) list;
      (** Inter-node prerequisite states that must have been visited before
          this event fires. *)
  infer_payload : node:int -> label:'label -> 'payload option;
      (** Synthesize related information for inferred events. *)
}

type stats = {
  emitted_logged : int;  (** Input events that fired. *)
  emitted_inferred : int;  (** Lost events reconstructed. *)
  skipped : int;  (** Input events with no available transition. *)
}

(** One packet's merged events, in either of the engine's two input
    shapes.  Per-node order must be preserved in both; the cross-node
    interleaving is arbitrary. *)
type ('label, 'payload) input =
  | Events of (int * 'label * 'payload option) array
      (** [(node, label, payload)] per event. *)
  | Packed of {
      n : int;
      nodes : int array;
      labels : 'label array;
      ids : int array;
      payloads : 'payload option array;
      pre_nodes : int array;
      pre_states : Fsm_state.t array;
      srcs : int array;
    }
      (** Pre-resolved parallel arrays — the shape the reconstruction
          kernel packs into its per-domain scratch ({!Reconstruct}).  The
          events are slots [0, n) of each array; the arrays may be
          longer.  [ids.(i)] must equal
          [Fsm.label_id (config.fsm_of nodes.(i)) labels.(i)], and
          [pre_nodes]/[pre_states] carry each event's single inter-node
          prerequisite ([-1] = none) with exactly the semantics
          [config.prerequisites] would return (the closure is then only
          consulted for inferred emissions).  Pass [pre_nodes = [||]] to
          fall back to the closure for every event.

          [srcs.(i)] maps event slot [i] back to the index consumers know
          the underlying record by (packers may permute the caller's
          records); provenance evidence cites these indices.  [[||]] means
          identity — the slot index itself. *)

val process :
  ?use_intra:bool ->
  ?prov_out:(Provenance.t array -> int -> unit) ->
  ?src_out:(int array -> int -> unit) ->
  ('label, 'payload) config ->
  ('label, 'payload) input ->
  emit:
    (node:int ->
    label:'label ->
    payload:'payload option ->
    inferred:bool ->
    entered:Fsm_state.t ->
    unit) ->
  stats
(** [process config input ~emit] runs the transition algorithm over the
    merged events and calls [emit] once per reconstructed event, in flow
    order, with the event's {!item} fields: a caller that wants records
    builds them in the callback, and one that packs items (the
    reconstruction kernel, into {!Flow.Builder}) builds none.  Logged
    events appear exactly once each (fired or skipped); inferred events
    are interleaved where the engine proved they must have occurred.  The
    engine reads the input arrays and never writes them.

    {b Per-domain state.}  Every run takes its node instances, pending
    queues, consumed flags, drive-depth tally and side-car buffers from a
    pool owned by the calling domain, and resets all of it when it
    starts, so a run that raised leaves nothing the next run reads.  A
    run allocates its context, its instances' FSM slots and its
    {!stats}.  So a domain runs one [process] at a time: [config]'s
    closures and [emit] must not call [process] on the same domain, and
    systhreads of one domain must not run it concurrently.

    [prov_out buf len], when given, is called once, before [process]
    returns, with the provenance side-car: [buf.(k)] for [k < len]
    explains the [k]-th [emit]ted item.  [buf] is the pool's buffer — it
    is only valid during the callback (copy the prefix out to keep it),
    and entries at and beyond [len] are meaningless.  Recording costs bit
    packing and one int store per emission; evidence indices are source
    indices ([srcs]-mapped for packed input).

    [src_out buf len], when given, is the same kind of side-car for
    sources: [buf.(k)] is the source index of the input event the [k]-th
    emitted item fired ([srcs]-mapped for packed input, like provenance
    evidence), and [-1] for an inferred item.  This is how a caller
    points each logged item back at its record without searching.

    This is the single entry point: batch and stream reconstruction pack
    the emissions into flows (see {!Reconstruct}), other protocol models
    ({!Dissem}) collect items.

    [use_intra] (default [true]) enables the intra-node shortcut
    transitions; disabling it (events fire on normal transitions only, and
    prerequisite gaps are still bridged) is the ablation knob for measuring
    what §IV.B's intra-node derivation contributes.  Inter-node reasoning
    is ablated by supplying a [prerequisites] that returns [].

    The pre-streaming list-returning entry points ([run], [run_array],
    [run_packed]) are gone; see README.md "API migration". *)
