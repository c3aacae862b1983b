(* Tests for the concrete protocol model: role FSMs, prerequisites, payload
   synthesis, the Table II reconstructions, and loss-cause classification. *)

open Refill

let record node kind : Logsys.Record.t =
  { node; kind; origin = 1; pkt_seq = 0; true_time = 0.; gseq = 0 }

let reconstruct ?(origin = 1) ?(sink = 99) records =
  Reconstruct.of_records (Array.of_list records) ~origin ~seq:0 ~sink

let flow_string flow = Flow.to_string flow

(* -- Role FSMs ----------------------------------------------------------------- *)

let roles () =
  Alcotest.(check bool) "origin" true
    (Protocol.role_of ~origin:1 ~sink:0 1 = Protocol.Origin);
  Alcotest.(check bool) "sink" true
    (Protocol.role_of ~origin:1 ~sink:0 0 = Protocol.Sink);
  Alcotest.(check bool) "forwarder" true
    (Protocol.role_of ~origin:1 ~sink:0 5 = Protocol.Forwarder)

let origin_fsm_shape () =
  let f = Protocol.fsm_of_role Protocol.Origin in
  Alcotest.(check (option int)) "gen from init" (Some Protocol.holding)
    (Fsm.normal_next f ~from:Protocol.init Protocol.L_gen);
  Alcotest.(check (option int)) "no recv from init" None
    (Fsm.normal_next f ~from:Protocol.init Protocol.L_recv);
  Alcotest.(check (option int)) "loop re-reception" (Some Protocol.holding)
    (Fsm.normal_next f ~from:Protocol.acked Protocol.L_recv)

let forwarder_fsm_shape () =
  let f = Protocol.fsm_of_role Protocol.Forwarder in
  Alcotest.(check (option int)) "recv from init" (Some Protocol.holding)
    (Fsm.normal_next f ~from:Protocol.init Protocol.L_recv);
  Alcotest.(check (option int)) "no gen" None
    (Fsm.normal_next f ~from:Protocol.init Protocol.L_gen);
  Alcotest.(check (option int)) "overflow at entry"
    (Some Protocol.overflow_dropped)
    (Fsm.normal_next f ~from:Protocol.init Protocol.L_overflow);
  Alcotest.(check (option int)) "dup while sending"
    (Some Protocol.dup_dropped)
    (Fsm.normal_next f ~from:Protocol.sent Protocol.L_dup)

let sink_fsm_shape () =
  let f = Protocol.fsm_of_role Protocol.Sink in
  Alcotest.(check (option int)) "deliver" (Some Protocol.delivered)
    (Fsm.normal_next f ~from:Protocol.holding Protocol.L_deliver);
  Alcotest.(check (option int)) "sink never sends" None
    (Fsm.normal_next f ~from:Protocol.holding Protocol.L_trans)

let label_mapping () =
  Alcotest.(check string) "trans" "trans"
    (Protocol.label_name
       (Protocol.label_of_tag (Logsys.Codec.tag_of_kind (Trans { to_ = 2 }))));
  Alcotest.(check string) "deliver" "deliver"
    (Protocol.label_name
       (Protocol.label_of_tag (Logsys.Codec.tag_of_kind Deliver)));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("state name " ^ s) true (String.length s > 0))
    (List.init Protocol.n_states Protocol.state_name)

(* -- Table II / §IV.C ------------------------------------------------------------ *)

let case1 () =
  (* Input: 1-2 trans, 2-3 recv (node 2's log lost). Paper output:
     1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv. Our model also grounds
     the origin with an inferred [gen]. *)
  let flow =
    reconstruct [ record 1 (Trans { to_ = 2 }); record 3 (Recv { from = 2 }) ]
  in
  Alcotest.(check string) "flow"
    "[gen@1], 1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"
    (flow_string flow);
  Alcotest.(check int) "three inferred" 3 flow.stats.emitted_inferred;
  Alcotest.(check (list int)) "hop path" [ 1; 2; 3 ] (Flow.nodes_visited flow)

let case2 () =
  (* Input: 1-2 trans, 1-2 ack. Paper: 1-2 trans, [1-2 recv], 1-2 ack;
     verdict: lost at node 2 after successful transmission (acked loss). *)
  let flow =
    reconstruct
      [ record 1 (Trans { to_ = 2 }); record 1 (Ack_recvd { to_ = 2 }) ]
  in
  Alcotest.(check string) "flow" "[gen@1], 1-2 trans, [1-2 recv], 1-2 ack"
    (flow_string flow);
  let v = Classify.classify flow in
  Alcotest.(check string) "acked loss" "acked" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "at node 2" (Some 2) v.loss_node

let case3 () =
  (* Input: 1-2 ack, then 1-2 trans (ack precedes trans). Paper:
     [1-2 trans], [1-2 recv], 1-2 ack, 1-2 trans — the node received and
     forwarded twice; the packet died in the retransmission. *)
  let flow =
    reconstruct
      [ record 1 (Ack_recvd { to_ = 2 }); record 1 (Trans { to_ = 2 }) ]
  in
  Alcotest.(check string) "flow"
    "[gen@1], [1-2 trans], [1-2 recv], 1-2 ack, [?-1 recv], 1-2 trans"
    (flow_string flow);
  let v = Classify.classify flow in
  Alcotest.(check string) "in-air loss" "timeout" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "while node 1 was sending" (Some 1) v.loss_node;
  Alcotest.(check (option int)) "toward node 2" (Some 2) v.next_hop

let case4_records () =
  [
    record 1 (Trans { to_ = 2 });
    record 1 (Ack_recvd { to_ = 2 });
    record 1 (Recv { from = 3 });
    record 1 (Trans { to_ = 2 });
    record 1 (Ack_recvd { to_ = 2 });
    record 2 (Recv { from = 1 });
    record 2 (Trans { to_ = 3 });
    record 2 (Ack_recvd { to_ = 3 });
    record 2 (Trans { to_ = 3 });
    record 3 (Recv { from = 2 });
    record 3 (Trans { to_ = 1 });
    record 3 (Ack_recvd { to_ = 1 });
  ]

let case4 () =
  (* The routing-loop case: complete logs, but only ordering reveals the
     loop and the loss during node 2's second transmission. *)
  let flow = reconstruct (case4_records ()) in
  (* The paper's key inference: node 2's second reception was lost and is
     reconstructed. *)
  let second_recv_inferred =
    List.filter
      (fun (i : Flow.item) ->
        i.node = 2 && i.label = Protocol.L_recv && i.inferred)
      (Flow.items flow)
  in
  Alcotest.(check int) "[1-2 recv] inferred" 1
    (List.length second_recv_inferred);
  let v = Classify.classify flow in
  Alcotest.(check string) "timeout loss" "timeout" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "lost at node 2" (Some 2) v.loss_node;
  Alcotest.(check (option int)) "transmitting to node 3" (Some 3) v.next_hop

let intra_counter_matches_table_ii () =
  (* [refill_intra_inferences_total] must equal the intra transitions the
     engine actually takes, per Table II case: case 1 and 2 bridge only
     the origin's lost [gen] (1 each); case 3 additionally bridges the
     loop re-reception before the second trans (2); case 4 bridges the
     origin's [gen] and node 2's lost second reception (2). *)
  let module C = Refill_obs.Metrics.Counter in
  let c_intra = C.v "refill_intra_inferences_total" in
  let delta records =
    let before = C.value c_intra in
    ignore (reconstruct records : Flow.t);
    C.value c_intra - before
  in
  Alcotest.(check int) "case 1" 1
    (delta [ record 1 (Trans { to_ = 2 }); record 3 (Recv { from = 2 }) ]);
  Alcotest.(check int) "case 2" 1
    (delta [ record 1 (Trans { to_ = 2 }); record 1 (Ack_recvd { to_ = 2 }) ]);
  Alcotest.(check int) "case 3" 2
    (delta [ record 1 (Ack_recvd { to_ = 2 }); record 1 (Trans { to_ = 2 }) ]);
  Alcotest.(check int) "case 4" 2 (delta (case4_records ()))

let complete_delivery_no_inference () =
  (* A clean end-to-end trace through a sink produces zero inferred events
     and a Delivered verdict. *)
  let records =
    [
      record 1 Gen;
      record 1 (Trans { to_ = 2 });
      record 1 (Ack_recvd { to_ = 2 });
      record 2 (Recv { from = 1 });
      record 2 (Trans { to_ = 0 });
      record 2 (Ack_recvd { to_ = 0 });
      record 0 (Recv { from = 2 });
      record 0 Deliver;
    ]
  in
  let flow = reconstruct ~sink:0 records in
  Alcotest.(check int) "nothing inferred" 0 flow.stats.emitted_inferred;
  Alcotest.(check int) "nothing skipped" 0 flow.stats.skipped;
  let v = Classify.classify flow in
  Alcotest.(check string) "delivered" "delivered" (Logsys.Cause.name v.cause);
  Alcotest.(check bool) "is_delivered" true (Classify.is_delivered flow)

let dup_and_overflow_verdicts () =
  let dup_flow =
    reconstruct
      [
        record 1 Gen;
        record 1 (Trans { to_ = 2 });
        record 2 (Recv { from = 1 });
        record 2 (Trans { to_ = 1 });
        record 1 (Dup { from = 2 });
      ]
  in
  let v = Classify.classify dup_flow in
  Alcotest.(check string) "duplicate" "duplicate" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "at node 1" (Some 1) v.loss_node;
  let ovf_flow =
    reconstruct
      [
        record 1 Gen;
        record 1 (Trans { to_ = 2 });
        record 2 (Overflow { from = 1 });
      ]
  in
  let v = Classify.classify ovf_flow in
  Alcotest.(check string) "overflow" "overflow" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "at node 2" (Some 2) v.loss_node

let timeout_verdict () =
  let flow =
    reconstruct
      [
        record 1 Gen;
        record 1 (Trans { to_ = 2 });
        record 1 (Retx_timeout { to_ = 2 });
      ]
  in
  let v = Classify.classify flow in
  Alcotest.(check string) "timeout" "timeout" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "at sender" (Some 1) v.loss_node;
  Alcotest.(check (option int)) "next hop" (Some 2) v.next_hop

let received_loss_verdict () =
  (* recv logged, nothing after: packet died inside node 2. *)
  let flow =
    reconstruct
      [
        record 1 Gen;
        record 1 (Trans { to_ = 2 });
        record 1 (Ack_recvd { to_ = 2 });
        record 2 (Recv { from = 1 });
      ]
  in
  let v = Classify.classify flow in
  Alcotest.(check string) "received loss" "received" (Logsys.Cause.name v.cause);
  Alcotest.(check (option int)) "at node 2" (Some 2) v.loss_node

let timeout_but_receiver_continued () =
  (* The §III trap: trans without ack does NOT mean the packet was lost —
     the receiver's log shows it moved on. *)
  let records =
    [
      record 1 Gen;
      record 1 (Trans { to_ = 2 });
      record 1 (Retx_timeout { to_ = 2 });
      record 2 (Recv { from = 1 });
      record 2 (Trans { to_ = 0 });
      record 2 (Ack_recvd { to_ = 0 });
      record 0 (Recv { from = 2 });
      record 0 Deliver;
    ]
  in
  let flow = reconstruct ~sink:0 records in
  let v = Classify.classify flow in
  Alcotest.(check string) "delivered despite sender timeout" "delivered"
    (Logsys.Cause.name v.cause)

let gen_only_unknown () =
  let flow = reconstruct [ record 1 Gen ] in
  let v = Classify.classify flow in
  Alcotest.(check string) "unknown" "unknown" (Logsys.Cause.name v.cause);
  Alcotest.(check bool) "empty flow unknown" true
    ((Classify.classify (reconstruct [])).cause = Logsys.Cause.Unknown)

(* -- Payload synthesis ------------------------------------------------------------ *)

let synthesis_finds_peers () =
  (* Case 1's inferred events carry recovered peers. *)
  let flow =
    reconstruct [ record 1 (Trans { to_ = 2 }); record 3 (Recv { from = 2 }) ]
  in
  let inferred = Flow.inferred_items flow in
  let kinds =
    List.filter_map
      (fun (i : Flow.item) ->
        Option.map (fun (r : Logsys.Record.t) -> (i.node, r.kind)) i.payload)
      inferred
  in
  Alcotest.(check bool) "recv on 2 from 1" true
    (List.mem (2, Logsys.Record.Recv { from = 1 }) kinds);
  Alcotest.(check bool) "trans on 2 to 3" true
    (List.mem (2, Logsys.Record.Trans { to_ = 3 }) kinds)

let synthesis_unknown_peer () =
  (* No record points at node 1, so the re-reception peer is unknown. *)
  let flow = reconstruct [ record 1 (Ack_recvd { to_ = 2 }); record 1 (Trans { to_ = 2 }) ] in
  let has_unknown =
    List.exists
      (fun (i : Flow.item) ->
        match i.payload with
        | Some { kind = Logsys.Record.Recv { from }; _ } ->
            from = Protocol.unknown_node
        | _ -> false)
      (Flow.items flow)
  in
  Alcotest.(check bool) "unknown peer present" true has_unknown

(* -- Flow utilities ----------------------------------------------------------------- *)

let flow_item_accessors () =
  let flow =
    reconstruct [ record 1 (Trans { to_ = 2 }); record 3 (Recv { from = 2 }) ]
  in
  Alcotest.(check int) "length" 5 (Flow.length flow);
  Alcotest.(check int) "logged" 2 (List.length (Flow.logged_items flow));
  Alcotest.(check int) "inferred" 3 (List.length (Flow.inferred_items flow));
  Alcotest.(check (pair int int)) "key" (1, 0) (Flow.packet_key flow);
  (match Flow.last_item flow with
  | Some i -> Alcotest.(check bool) "last is recv" true (i.label = Protocol.L_recv)
  | None -> Alcotest.fail "nonempty");
  Alcotest.(check bool) "empty last" true
    (Flow.last_item (Flow.of_items ~origin:1 ~seq:0 ~stats:flow.stats []) = None)

let ablation_flags_change_behaviour () =
  (* Case 2 through the ablation knobs: without intra transitions the ack
     cannot fire from Init (skipped); without inter-node prerequisites the
     receiver's [recv] is no longer inferred. *)
  let records =
    [ record 1 (Trans { to_ = 2 }); record 1 (Ack_recvd { to_ = 2 }) ]
  in
  let logger = Logsys.Logger.create ~n_nodes:3 in
  List.iteri
    (fun i (r : Logsys.Record.t) ->
      Logsys.Logger.log logger { r with gseq = i })
    records;
  let collected = Logsys.Collected.of_logger logger in
  let flow ~use_intra ~use_inter =
    Refill.Reconstruct.packet ~use_intra ~use_inter
      (Logsys.Collected.packets collected)
      ~origin:1 ~seq:0 ~sink:99
  in
  let full = flow ~use_intra:true ~use_inter:true in
  Alcotest.(check string) "full inference"
    "[gen@1], 1-2 trans, [1-2 recv], 1-2 ack" (Flow.to_string full);
  let no_intra = flow ~use_intra:false ~use_inter:true in
  Alcotest.(check int) "everything skipped without intra" 2
    no_intra.stats.skipped;
  let no_inter = flow ~use_intra:true ~use_inter:false in
  Alcotest.(check string) "no receiver inference without inter"
    "[gen@1], 1-2 trans, 1-2 ack" (Flow.to_string no_inter)

let sequence_diagram_renders () =
  let flow =
    reconstruct [ record 1 (Trans { to_ = 2 }); record 3 (Recv { from = 2 }) ]
  in
  let d = Flow.to_sequence_diagram flow in
  let contains needle =
    let n = String.length needle and h = String.length d in
    let rec scan i = i + n <= h && (String.sub d i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has node headers" true (contains "n1" && contains "n2" && contains "n3");
  Alcotest.(check bool) "has arrows" true (contains "->");
  Alcotest.(check bool) "marks inferred" true (contains "[recv]");
  Alcotest.(check string) "empty flow" "(empty flow)\n"
    (Flow.to_sequence_diagram
       (Flow.of_items ~origin:1 ~seq:0 ~stats:flow.stats []))

let () =
  Alcotest.run "refill-protocol"
    [
      ( "fsm-roles",
        [
          Alcotest.test_case "role mapping" `Quick roles;
          Alcotest.test_case "origin shape" `Quick origin_fsm_shape;
          Alcotest.test_case "forwarder shape" `Quick forwarder_fsm_shape;
          Alcotest.test_case "sink shape" `Quick sink_fsm_shape;
          Alcotest.test_case "label mapping" `Quick label_mapping;
        ] );
      ( "table2",
        [
          Alcotest.test_case "case 1" `Quick case1;
          Alcotest.test_case "case 2" `Quick case2;
          Alcotest.test_case "case 3" `Quick case3;
          Alcotest.test_case "case 4" `Quick case4;
          Alcotest.test_case "intra counter matches Table II" `Quick
            intra_counter_matches_table_ii;
        ] );
      ( "classification",
        [
          Alcotest.test_case "clean delivery" `Quick
            complete_delivery_no_inference;
          Alcotest.test_case "dup/overflow" `Quick dup_and_overflow_verdicts;
          Alcotest.test_case "timeout" `Quick timeout_verdict;
          Alcotest.test_case "received loss" `Quick received_loss_verdict;
          Alcotest.test_case "receiver continued" `Quick
            timeout_but_receiver_continued;
          Alcotest.test_case "gen-only unknown" `Quick gen_only_unknown;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "finds peers" `Quick synthesis_finds_peers;
          Alcotest.test_case "unknown peer" `Quick synthesis_unknown_peer;
        ] );
      ( "flow",
        [
          Alcotest.test_case "accessors" `Quick flow_item_accessors;
          Alcotest.test_case "sequence diagram" `Quick
            sequence_diagram_renders;
          Alcotest.test_case "ablation flags" `Quick
            ablation_flags_change_behaviour;
        ] );
    ]
