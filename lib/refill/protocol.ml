type label =
  | L_gen
  | L_recv
  | L_dup
  | L_overflow
  | L_trans
  | L_ack
  | L_timeout
  | L_deliver

let label_name = function
  | L_gen -> "gen"
  | L_recv -> "recv"
  | L_dup -> "dup"
  | L_overflow -> "overflow"
  | L_trans -> "trans"
  | L_ack -> "ack"
  | L_timeout -> "timeout"
  | L_deliver -> "deliver"

let label_of_kind : Logsys.Record.kind -> label = function
  | Gen -> L_gen
  | Recv _ -> L_recv
  | Dup _ -> L_dup
  | Overflow _ -> L_overflow
  | Trans _ -> L_trans
  | Ack_recvd _ -> L_ack
  | Retx_timeout _ -> L_timeout
  | Deliver -> L_deliver

let init = 0
let holding = 1
let sent = 2
let acked = 3
let timed_out = 4
let dup_dropped = 5
let overflow_dropped = 6
let delivered = 7
let n_states = 8

let state_name s =
  match s with
  | 0 -> "init"
  | 1 -> "holding"
  | 2 -> "sent"
  | 3 -> "acked"
  | 4 -> "timed-out"
  | 5 -> "dup-dropped"
  | 6 -> "overflow-dropped"
  | 7 -> "delivered"
  | _ -> "state-" ^ string_of_int s

type role = Origin | Forwarder | Sink

let role_of ~origin ~sink node =
  if node = sink then Sink else if node = origin then Origin else Forwarder

(* Transitions shared by every node that forwards packets: send, outcome,
   and loop re-entry. *)
let add_forwarding_core fsm =
  Fsm.add_transition fsm ~src:holding ~dst:sent L_trans;
  Fsm.add_transition fsm ~src:sent ~dst:acked L_ack;
  Fsm.add_transition fsm ~src:sent ~dst:timed_out L_timeout;
  (* A looped-back copy can arrive while the node is still retrying (its
     ACK was lost but the next hop accepted), or after the exchange. *)
  Fsm.add_transition fsm ~src:sent ~dst:dup_dropped L_dup;
  Fsm.add_transition fsm ~src:acked ~dst:dup_dropped L_dup;
  Fsm.add_transition fsm ~src:timed_out ~dst:dup_dropped L_dup;
  (* Re-reception after cache eviction: the node holds the packet again
     (Table II cases 3–4). *)
  Fsm.add_transition fsm ~src:acked ~dst:holding L_recv;
  Fsm.add_transition fsm ~src:timed_out ~dst:holding L_recv

let origin_fsm =
  let fsm = Fsm.create ~n_states ~initial:init in
  Fsm.add_transition fsm ~src:init ~dst:holding L_gen;
  (* The origin's own queue can be full when the application posts. *)
  Fsm.add_transition fsm ~src:holding ~dst:overflow_dropped L_overflow;
  add_forwarding_core fsm;
  fsm

let forwarder_fsm =
  let fsm = Fsm.create ~n_states ~initial:init in
  Fsm.add_transition fsm ~src:init ~dst:holding L_recv;
  Fsm.add_transition fsm ~src:init ~dst:overflow_dropped L_overflow;
  add_forwarding_core fsm;
  fsm

let sink_fsm =
  let fsm = Fsm.create ~n_states ~initial:init in
  Fsm.add_transition fsm ~src:init ~dst:holding L_recv;
  Fsm.add_transition fsm ~src:holding ~dst:delivered L_deliver;
  fsm

let fsm_of_role = function
  | Origin -> origin_fsm
  | Forwarder -> forwarder_fsm
  | Sink -> sink_fsm

let unknown_node = -1

(* -- Payload synthesis for inferred events. ------------------------------ *)

(* Peer recovery used to rescan the packet's record list once per inferred
   event; [Peer_index] extracts the same first-match answers in one pass
   ([make_config]) so each synthesis is a hashtable lookup.  First-write-
   wins mirrors the original List.find_map semantics exactly: the answer
   for each node comes from the earliest matching record in array
   order. *)
module Peer_index = struct
  type t = {
    sender_toward : (int, int) Hashtbl.t;
        (* receiver -> first sender-side record pointing at it *)
    own_target : (int, int) Hashtbl.t;
        (* sender -> target of its first own sender-side record *)
    named_receiver : (int, int) Hashtbl.t;
        (* sender -> first receiver-side record naming it as the source *)
  }

  let create () =
    {
      sender_toward = Hashtbl.create 16;
      own_target = Hashtbl.create 16;
      named_receiver = Hashtbl.create 16;
    }

  let put tbl key v = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

  let scan t (r : Logsys.Record.t) =
    match r.kind with
    | Trans { to_ } | Ack_recvd { to_ } | Retx_timeout { to_ } ->
        put t.sender_toward to_ r.node;
        put t.own_target r.node to_
    | Recv { from } | Dup { from } | Overflow { from } ->
        put t.named_receiver from r.node
    | Gen | Deliver -> ()

  (* Who transmitted toward [node]? Any sender-side record pointing at it. *)
  let sender_toward t node = Hashtbl.find_opt t.sender_toward node

  (* Whom did [node] transmit to? Its own sender-side records first, then
     any receiver-side record naming it as the sender. *)
  let receiver_from t node =
    match Hashtbl.find_opt t.own_target node with
    | Some _ as own -> own
    | None -> Hashtbl.find_opt t.named_receiver node
end

let synthesize ~index ~origin ~seq ~node label : Logsys.Record.t option =
  let make kind : Logsys.Record.t =
    { node; kind; origin; pkt_seq = seq; true_time = Float.nan; gseq = -1 }
  in
  let peer_from () =
    Option.value ~default:unknown_node (Peer_index.sender_toward index node)
  in
  let peer_to () =
    Option.value ~default:unknown_node (Peer_index.receiver_from index node)
  in
  match label with
  | L_gen -> Some (make Gen)
  | L_deliver -> Some (make Deliver)
  | L_recv -> Some (make (Recv { from = peer_from () }))
  | L_dup -> Some (make (Dup { from = peer_from () }))
  | L_overflow -> Some (make (Overflow { from = peer_from () }))
  | L_trans -> Some (make (Trans { to_ = peer_to () }))
  | L_ack -> Some (make (Ack_recvd { to_ = peer_to () }))
  | L_timeout -> Some (make (Retx_timeout { to_ = peer_to () }))

(* -- Inter-node prerequisites. ------------------------------------------- *)

let prerequisites ~node ~label:_ ~payload =
  match (payload : Logsys.Record.t option) with
  | None -> []
  | Some r -> (
      match r.kind with
      | Recv { from } | Dup { from } | Overflow { from } ->
          if from <> node && from <> unknown_node then [ (from, sent) ]
          else []
      | Ack_recvd { to_ } ->
          if to_ <> node && to_ <> unknown_node then [ (to_, holding) ]
          else []
      | Gen | Trans _ | Retx_timeout _ | Deliver -> [])

let config_with_index ~index ~origin ~seq ~sink :
    (label, Logsys.Record.t) Engine.config =
  {
    fsm_of = (fun node -> fsm_of_role (role_of ~origin ~sink node));
    prerequisites;
    infer_payload =
      (fun ~node ~label ->
        synthesize ~index:(Lazy.force index) ~origin ~seq ~node label);
  }

let events_of_records records =
  List.map
    (fun (r : Logsys.Record.t) -> (r.node, label_of_kind r.kind, Some r))
    records

(* -- Packed events: the zero-copy hot path. ------------------------------ *)

(* A dense rank for each label, independent of any FSM's internal label
   numbering, so per-role id tables are plain array lookups. *)
let label_rank = function
  | L_gen -> 0
  | L_recv -> 1
  | L_dup -> 2
  | L_overflow -> 3
  | L_trans -> 4
  | L_ack -> 5
  | L_timeout -> 6
  | L_deliver -> 7

let all_labels =
  [| L_gen; L_recv; L_dup; L_overflow; L_trans; L_ack; L_timeout; L_deliver |]

(* rank -> dense label id in the role's FSM (-1 when the role's FSM never
   uses the label), replacing a per-event hashtable lookup with an array
   read.  Built once per role; the FSMs are static. *)
let role_id_table fsm = Array.map (fun l -> Fsm.label_id fsm l) all_labels

let precompute_fsms () =
  Fsm.precompute origin_fsm;
  Fsm.precompute forwarder_fsm;
  Fsm.precompute sink_fsm

(* Everything a packet reconstruction reads is built here, at module
   initialization, before any domain can exist: the per-role id tables
   and the three FSMs' complete memo caches.  Worker domains (the
   parallel batch run, stream shards) therefore only ever read shared
   state — no lazy value or cache slot is first forced concurrently. *)
let origin_ids = role_id_table origin_fsm
let forwarder_ids = role_id_table forwarder_fsm
let sink_ids = role_id_table sink_fsm
let () = precompute_fsms ()

type packed = {
  p_nodes : int array;
  p_labels : label array;
  p_ids : int array;  (* dense label id in the event's node's FSM *)
  p_payloads : Logsys.Record.t option array;
  p_pre_nodes : int array;  (* prerequisite peer node, -1 = none *)
  p_pre_states : Fsm_state.t array;  (* state the peer must have visited *)
  p_srcs : int array;
      (* output slot -> node-scan-order record index (the causal merge
         permutes the records; provenance evidence cites the originals) *)
}

(* [pack_events records ~origin ~sink] builds the engine's packed input
   straight from one packet's flat record array (node-scan order, as
   {!Logsys.Arena.Packets.packet_rows} lists the rows), emitting into
   parallel arrays with labels, dense FSM ids, and inter-node
   prerequisites all resolved per event in this single pass — no tuples,
   no hashing, no per-event closure calls downstream.  Per-node record
   runs are merged along the forwarding chains the records reveal: start
   at the origin, follow each run's next hop, and restart from any run
   loss disconnected from its upstream. *)
let pack_events (records : Logsys.Record.t array) ~origin ~sink =
  let n = Array.length records in
  let p =
    {
      p_nodes = Array.make n 0;
      p_labels = Array.make n L_gen;
      p_ids = Array.make n (-1);
      p_payloads = Array.make n None;
      p_pre_nodes = Array.make n (-1);
      p_pre_states = Array.make n (-1);
      p_srcs = Array.make n (-1);
    }
  in
  if n = 0 then p
  else begin
    (* Segment discovery, fused into one pass over the records: boundaries
       of maximal same-node runs, each segment's next hop (first
       sender-side record's peer) and its first/last [Trans] indices —
       everything the chain walk and the three-way split need, so neither
       rescans the records.  Segment arrays are sized by the worst case
       (every record its own segment); per-packet counts are tiny. *)
    let seg_start = Array.make (n + 1) n in
    let seg_node = Array.make n (-1) in
    let seg_next = Array.make n (-1) in
    let seg_ft = Array.make n (-1) in
    let seg_lt = Array.make n (-1) in
    let n_segs = ref 0 in
    let last = ref (-1) in
    for i = 0 to n - 1 do
      let r = records.(i) in
      let node = r.Logsys.Record.node in
      if node <> !last then begin
        seg_start.(!n_segs) <- i;
        seg_node.(!n_segs) <- node;
        incr n_segs;
        last := node
      end;
      let s = !n_segs - 1 in
      match r.Logsys.Record.kind with
      | Trans { to_ } ->
          if seg_ft.(s) < 0 then seg_ft.(s) <- i;
          seg_lt.(s) <- i;
          if seg_next.(s) < 0 then seg_next.(s) <- to_
      | Ack_recvd { to_ } | Retx_timeout { to_ } ->
          if seg_next.(s) < 0 then seg_next.(s) <- to_
      | _ -> ()
    done;
    seg_start.(!n_segs) <- n;
    let used = Array.make !n_segs false in
    let find node =
      let rec f s =
        if s >= !n_segs then -1
        else if (not used.(s)) && seg_node.(s) = node then s
        else f (s + 1)
      in
      f 0
    in
    let next_hop s = seg_next.(s) in
    let out = ref 0 in
    let put src =
      let r = records.(src) in
      let i = !out in
      let node = r.node in
      let lab = label_of_kind r.kind in
      let tbl =
        if node = sink then sink_ids
        else if node = origin then origin_ids
        else forwarder_ids
      in
      p.p_nodes.(i) <- node;
      p.p_labels.(i) <- lab;
      p.p_ids.(i) <- tbl.(label_rank lab);
      p.p_payloads.(i) <- Some r;
      (match r.kind with
      | Recv { from } | Dup { from } | Overflow { from } ->
          if from <> node && from <> unknown_node then begin
            p.p_pre_nodes.(i) <- from;
            p.p_pre_states.(i) <- sent
          end
      | Ack_recvd { to_ } ->
          if to_ <> node && to_ <> unknown_node then begin
            p.p_pre_nodes.(i) <- to_;
            p.p_pre_states.(i) <- holding
          end
      | Gen | Trans _ | Retx_timeout _ | Deliver -> ());
      p.p_srcs.(i) <- src;
      out := i + 1
    in
    let put_range lo hi = for i = lo to hi - 1 do put i done in
    (* Within a chain, interleave the way the radio exchange actually
       happens: a hop's records through its last [Trans], then the next
       hop's reception-side processing (recv/dup/overflow, the sink's
       deliver), then the previous hop's trailing ACK/timeout — which in
       real time lands after the next hop has received the packet.  The
       three-way split is [lo, ft) head, [ft, lt] mid, (lt, hi) post,
       with ft/lt the segment's first/last [Trans] from discovery. *)
    let rec emit_chain prev_post_lo prev_post_hi = function
      | [] -> put_range prev_post_lo prev_post_hi
      | s :: rest ->
          let lo = seg_start.(s) and hi = seg_start.(s + 1) in
          let ft = seg_ft.(s) and lt = seg_lt.(s) in
          if ft < 0 then begin
            put_range lo hi;
            put_range prev_post_lo prev_post_hi;
            emit_chain 0 0 rest
          end
          else begin
            put_range lo ft;
            put_range prev_post_lo prev_post_hi;
            put_range ft (lt + 1);
            emit_chain (lt + 1) hi rest
          end
    in
    let rec walk node hops acc =
      if hops >= 256 then List.rev acc
      else
        match find node with
        | -1 -> List.rev acc
        | s ->
            used.(s) <- true;
            let next = next_hop s in
            if next >= 0 && next <> node then walk next (hops + 1) (s :: acc)
            else List.rev (s :: acc)
    in
    emit_chain 0 0 (walk origin 0 []);
    for s = 0 to !n_segs - 1 do
      if not used.(s) then emit_chain 0 0 (walk seg_node.(s) 0 [])
    done;
    p
  end

(* One pass over the packet's records — and only for packets that infer
   at all (lazily): every inferred event's peer recovery is then a lookup
   instead of a rescan of [records]. *)
let make_config ~records ~origin ~seq ~sink =
  config_with_index
    ~index:
      (lazy
        (let t = Peer_index.create () in
         Array.iter (Peer_index.scan t) records;
         t))
    ~origin ~seq ~sink
