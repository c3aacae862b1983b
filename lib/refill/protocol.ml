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


(* -- Labels and kind tags. ------------------------------------------------ *)

(* A label's rank is its record kind's tag ({!Logsys.Codec.tag_of_kind}),
   so the packer reads labels straight off the tag column and per-role id
   tables are plain array lookups. *)
let tag_of_label = function
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

let label_of_tag tag = all_labels.(tag)

(* tag -> dense label id in the role's FSM (-1 when the role's FSM never
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

(* -- Peers of inferred events. ------------------------------------------- *)

(* An inferred event's peer is recovered from the packet's surviving rows
   (e.g. an inferred [recv] on [n] takes its sender from any logged
   [trans]/[ack]/[timeout] pointing at [n]).  [Peer_index] extracts the
   answers in one pass over the rows, so each recovery is a lookup; the
   answer for each node comes from the first matching row in node-scan
   order. *)
module Peer_index = struct
  type t = {
    sender_toward : (int, int) Hashtbl.t;
        (* receiver -> first sender-side row pointing at it *)
    own_target : (int, int) Hashtbl.t;
        (* sender -> target of its first own sender-side row *)
    named_receiver : (int, int) Hashtbl.t;
        (* sender -> first receiver-side row naming it as the source *)
  }

  let put tbl key v = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

  let build arena rows =
    let t =
      {
        sender_toward = Hashtbl.create 16;
        own_target = Hashtbl.create 16;
        named_receiver = Hashtbl.create 16;
      }
    in
    Array.iter
      (fun r ->
        let tag = Logsys.Arena.tag arena r in
        if tag >= 1 && tag <= 6 then begin
          let node = Logsys.Arena.node arena r
          and peer = Logsys.Arena.peer arena r in
          if tag >= 4 then begin
            put t.sender_toward peer node;
            put t.own_target node peer
          end
          else put t.named_receiver peer node
        end)
      rows;
    t

  (* Who transmitted toward [node]? Any sender-side row pointing at it. *)
  let sender_toward t node = Hashtbl.find_opt t.sender_toward node

  (* Whom did [node] transmit to? Its own sender-side rows first, then
     any receiver-side row naming it as the sender. *)
  let receiver_from t node =
    match Hashtbl.find_opt t.own_target node with
    | Some _ as own -> own
    | None -> Hashtbl.find_opt t.named_receiver node
end

let infer_peer index ~node label =
  let or_unknown = Option.value ~default:unknown_node in
  match label with
  | L_gen | L_deliver -> 0
  | L_recv | L_dup | L_overflow ->
      or_unknown (Peer_index.sender_toward index node)
  | L_trans | L_ack | L_timeout ->
      or_unknown (Peer_index.receiver_from index node)

(* -- Inter-node prerequisites. ------------------------------------------- *)

(* The node an event of kind [tag] on [node], naming [peer], waits for —
   a reception's sender must have sent, an ACK's receiver must hold the
   packet — or [-1] when it waits for none. *)
let prerequisite_node ~node tag peer =
  if (tag = 5 || (tag >= 1 && tag <= 3)) && peer <> node
     && peer <> unknown_node
  then peer
  else -1

let prerequisite_state tag = if tag = 5 then holding else sent

let prerequisites ~node ~label ~payload =
  match payload with
  | None -> []
  | Some peer -> (
      let tag = tag_of_label label in
      match prerequisite_node ~node tag peer with
      | -1 -> []
      | pn -> [ (pn, prerequisite_state tag) ])

let config arena rows ~origin ~sink : (label, int) Engine.config =
  (* Built only for packets that infer at all. *)
  let index = lazy (Peer_index.build arena rows) in
  {
    fsm_of = (fun node -> fsm_of_role (role_of ~origin ~sink node));
    prerequisites;
    infer_payload =
      (fun ~node ~label -> Some (infer_peer (Lazy.force index) ~node label));
  }

(* -- Packed events: the zero-copy hot path. ------------------------------ *)

(* [pack_events arena rows ~origin ~sink] builds the engine's packed input
   straight from one packet's rows (node-scan order, as
   {!Logsys.Arena.Packets.packet_rows} lists them), reading the node, tag
   and peer columns and emitting into parallel arrays with labels, dense
   FSM ids, and inter-node prerequisites all resolved per event in this
   single pass — no records, no tuples, no hashing, no per-event closure
   calls downstream.  Per-node runs are merged along the forwarding
   chains the rows reveal: start at the origin, follow each run's next
   hop, and restart from any run loss disconnected from its upstream. *)
let pack_events arena rows ~origin ~sink : (label, int) Engine.input =
  let module A = Logsys.Arena in
  let n = Array.length rows in
  let nodes = Array.make n 0
  and labels = Array.make n L_gen
  and ids = Array.make n (-1)
  and payloads = Array.make n None
  and pre_nodes = Array.make n (-1)
  and pre_states = Array.make n (-1)
  and srcs = Array.make n (-1) in
  if n > 0 then begin
    (* Segment discovery, fused into one pass over the rows: boundaries
       of maximal same-node runs, each segment's next hop (first
       sender-side row's peer) and its first/last [Trans] indices —
       everything the chain walk and the three-way split need, so neither
       rescans the rows.  Segment arrays are sized by the worst case
       (every row its own segment); per-packet counts are tiny. *)
    let seg_start = Array.make (n + 1) n in
    let seg_node = Array.make n (-1) in
    let seg_next = Array.make n (-1) in
    let seg_ft = Array.make n (-1) in
    let seg_lt = Array.make n (-1) in
    let n_segs = ref 0 in
    let last = ref (-1) in
    for i = 0 to n - 1 do
      let r = rows.(i) in
      let node = A.node arena r in
      if node <> !last then begin
        seg_start.(!n_segs) <- i;
        seg_node.(!n_segs) <- node;
        incr n_segs;
        last := node
      end;
      let s = !n_segs - 1 in
      let tag = A.tag arena r in
      if tag >= 4 && tag <= 6 then begin
        if tag = 4 then begin
          if seg_ft.(s) < 0 then seg_ft.(s) <- i;
          seg_lt.(s) <- i
        end;
        if seg_next.(s) < 0 then seg_next.(s) <- A.peer arena r
      end
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
    let out = ref 0 in
    let put src =
      let r = rows.(src) in
      let i = !out in
      let node = A.node arena r and tag = A.tag arena r in
      let peer = if tag >= 1 && tag <= 6 then A.peer arena r else 0 in
      let tbl =
        if node = sink then sink_ids
        else if node = origin then origin_ids
        else forwarder_ids
      in
      nodes.(i) <- node;
      labels.(i) <- all_labels.(tag);
      ids.(i) <- tbl.(tag);
      payloads.(i) <- Some peer;
      (match prerequisite_node ~node tag peer with
      | -1 -> ()
      | pn ->
          pre_nodes.(i) <- pn;
          pre_states.(i) <- prerequisite_state tag);
      srcs.(i) <- src;
      out := i + 1
    in
    let put_range lo hi = for i = lo to hi - 1 do put i done in
    (* Within a chain, interleave the way the radio exchange actually
       happens: a hop's rows through its last [Trans], then the next
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
            let next = seg_next.(s) in
            if next >= 0 && next <> node then walk next (hops + 1) (s :: acc)
            else List.rev (s :: acc)
    in
    emit_chain 0 0 (walk origin 0 []);
    for s = 0 to !n_segs - 1 do
      if not used.(s) then emit_chain 0 0 (walk seg_node.(s) 0 [])
    done
  end;
  Packed { nodes; labels; ids; payloads; pre_nodes; pre_states; srcs }
