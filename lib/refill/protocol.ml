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

let label_id_of_tag role tag =
  match role with
  | Origin -> origin_ids.(tag)
  | Forwarder -> forwarder_ids.(tag)
  | Sink -> sink_ids.(tag)

(* -- Inter-node prerequisites. ------------------------------------------- *)

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
