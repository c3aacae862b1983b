(* Tests for the connected inference engines and the transition algorithm,
   built around the four abstract examples of Fig. 3. Each node's FSM is the
   paper's two-edge chain: init --eA--> mid --eB--> done. *)

open Refill

let s_init = 0

let s_mid = 1

let s_done = 2

(* Node i's chain FSM with labels taken from [labels_of i]. *)
let chain_fsm (la, lb) =
  let f = Fsm.create ~n_states:3 ~initial:s_init in
  Fsm.add_transition f ~src:s_init ~dst:s_mid la;
  Fsm.add_transition f ~src:s_mid ~dst:s_done lb;
  f

(* Standard Fig. 3 node labels: node 1 = e1,e2; node 2 = e3,e4; node 3 =
   e5,e6. *)
let labels_of = function
  | 1 -> ("e1", "e2")
  | 2 -> ("e3", "e4")
  | 3 -> ("e5", "e6")
  | n -> Alcotest.failf "unexpected node %d" n

let config ~prerequisites : (string, unit) Engine.config =
  {
    fsm_of = (fun node -> chain_fsm (labels_of node));
    prerequisites = (fun ~node ~label ~payload:_ -> prerequisites node label);
    infer_payload = (fun ~node:_ ~label:_ -> None);
  }

(* The pre-redesign run shape (event list in, item list out) over the
   sink-parameterized [Engine.process]. *)
let engine_run ?use_intra cfg ~events =
  let acc = ref [] in
  let stats =
    Engine.process ?use_intra cfg
      (Engine.Events (Array.of_list events))
      ~emit:(fun ~node ~label ~payload ~inferred ~entered ->
        acc := { Engine.node; label; payload; inferred; entered } :: !acc)
  in
  (List.rev !acc, stats)

let flow_labels items =
  List.map (fun (i : (string, unit) Engine.item) -> i.label) items

let index label items =
  match List.find_index (fun (i : (string, unit) Engine.item) -> i.label = label) items with
  | Some i -> i
  | None -> Alcotest.failf "label %s missing from flow" label

let event node label = (node, label, None)

(* Fig. 3 (a): cascading prerequisites — e2 needs node 2 done, e4 needs
   node 3 done. *)
let cascade_prereqs node label =
  match (node, label) with
  | 1, "e2" -> [ (2, s_done) ]
  | 2, "e4" -> [ (3, s_done) ]
  | _ -> []

let fig3a_full_logs () =
  let events =
    [
      event 1 "e1"; event 1 "e2"; event 2 "e3"; event 2 "e4"; event 3 "e5";
      event 3 "e6";
    ]
  in
  let items, stats =
    engine_run (config ~prerequisites:cascade_prereqs) ~events
  in
  Alcotest.(check (list string)) "paper's exact flow"
    [ "e1"; "e3"; "e5"; "e6"; "e4"; "e2" ]
    (flow_labels items);
  Alcotest.(check int) "all logged" 6 stats.emitted_logged;
  Alcotest.(check int) "none inferred" 0 stats.emitted_inferred;
  Alcotest.(check int) "none skipped" 0 stats.skipped

let fig3a_only_e2 () =
  (* §IV.B: "even when there is only one event e2 on node 1 and all other
     events are lost, the transition algorithm can generate the correct
     event flow and infer lost events." *)
  let items, stats =
    engine_run (config ~prerequisites:cascade_prereqs) ~events:[ event 1 "e2" ]
  in
  Alcotest.(check (list string)) "reconstructed flow"
    [ "e1"; "e3"; "e5"; "e6"; "e4"; "e2" ]
    (flow_labels items);
  Alcotest.(check int) "five inferred" 5 stats.emitted_inferred;
  let inferred =
    List.filter (fun (i : (string, unit) Engine.item) -> i.inferred) items
  in
  Alcotest.(check (list string)) "exactly the lost ones"
    [ "e1"; "e3"; "e5"; "e6"; "e4" ]
    (flow_labels inferred)

let fig3b_one_to_many () =
  (* e4 requires both node 1 and node 3 to be done. *)
  let prereqs node label =
    match (node, label) with
    | 2, "e4" -> [ (1, s_done); (3, s_done) ]
    | _ -> []
  in
  let events =
    [
      event 1 "e1"; event 1 "e2"; event 2 "e3"; event 2 "e4"; event 3 "e5";
      event 3 "e6";
    ]
  in
  let items, _ = engine_run (config ~prerequisites:prereqs) ~events in
  Alcotest.(check bool) "e2 before e4" true (index "e2" items < index "e4" items);
  Alcotest.(check bool) "e6 before e4" true (index "e6" items < index "e4" items);
  Alcotest.(check int) "all six" 6 (List.length items)

let fig3c_many_to_one () =
  (* e3 on node 2 is prerequisite for both e1 and e5. *)
  let prereqs node label =
    match (node, label) with
    | 1, "e1" | 3, "e5" -> [ (2, s_mid) ]
    | _ -> []
  in
  let events =
    [
      event 1 "e1"; event 1 "e2"; event 3 "e5"; event 3 "e6"; event 2 "e3";
      event 2 "e4";
    ]
  in
  let items, _ = engine_run (config ~prerequisites:prereqs) ~events in
  Alcotest.(check bool) "e3 before e1" true (index "e3" items < index "e1" items);
  Alcotest.(check bool) "e3 before e5" true (index "e3" items < index "e5" items)

let fig3d_mixed () =
  (* e3 ⊢ {e1, e5}; {e2, e6} ⊢ e4 — the negotiation pattern. *)
  let prereqs node label =
    match (node, label) with
    | 1, "e1" | 3, "e5" -> [ (2, s_mid) ]
    | 2, "e4" -> [ (1, s_done); (3, s_done) ]
    | _ -> []
  in
  let events =
    [
      event 1 "e1"; event 1 "e2"; event 2 "e3"; event 2 "e4"; event 3 "e5";
      event 3 "e6";
    ]
  in
  let items, _ = engine_run (config ~prerequisites:prereqs) ~events in
  List.iter
    (fun (before, after) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s before %s" before after)
        true
        (index before items < index after items))
    [ ("e3", "e1"); ("e3", "e5"); ("e2", "e4"); ("e6", "e4") ]

let fig3a_insensitive_to_merge_order () =
  (* Any merge preserving per-node order yields the same flow here. *)
  let orders =
    [
      [ event 1 "e1"; event 1 "e2"; event 2 "e3"; event 2 "e4"; event 3 "e5"; event 3 "e6" ];
      [ event 3 "e5"; event 3 "e6"; event 2 "e3"; event 2 "e4"; event 1 "e1"; event 1 "e2" ];
      [ event 1 "e1"; event 2 "e3"; event 3 "e5"; event 1 "e2"; event 2 "e4"; event 3 "e6" ];
    ]
  in
  let flows =
    List.map
      (fun events ->
        let items, _ =
          engine_run (config ~prerequisites:cascade_prereqs) ~events
        in
        flow_labels items
        |> List.filteri (fun _ _ -> true))
      orders
  in
  match flows with
  | first :: rest ->
      List.iter
        (fun f ->
          Alcotest.(check (list string)) "same set" (List.sort compare first)
            (List.sort compare f))
        rest
  | [] -> assert false

(* -- Mechanics beyond Fig. 3 ------------------------------------------------ *)

let unfireable_events_skipped () =
  (* e2 from the initial state uses the intra transition; a label the FSM
     does not know is skipped. *)
  let cfg : (string, unit) Engine.config =
    {
      fsm_of = (fun _ -> chain_fsm ("e1", "e2"));
      prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  let items, stats = engine_run cfg ~events:[ (1, "bogus", None); (1, "e2", None) ] in
  Alcotest.(check int) "one skipped" 1 stats.skipped;
  Alcotest.(check (list string)) "e1 inferred then e2" [ "e1"; "e2" ]
    (flow_labels items)

let intra_fires_with_inferred_prefix () =
  let cfg : (string, unit) Engine.config =
    {
      fsm_of = (fun _ -> chain_fsm ("e1", "e2"));
      prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  let items, stats = engine_run cfg ~events:[ (1, "e2", None) ] in
  Alcotest.(check int) "e1 inferred" 1 stats.emitted_inferred;
  (match items with
  | [ first; second ] ->
      Alcotest.(check bool) "first inferred" true first.inferred;
      Alcotest.(check bool) "second logged" false second.inferred;
      Alcotest.(check int) "entered mid" s_mid first.entered;
      Alcotest.(check int) "entered done" s_done second.entered
  | _ -> Alcotest.fail "two items expected")

let historical_prerequisite () =
  (* Node 2 moves past the prerequisite state before node 1's event is
     processed; the prerequisite must still count as satisfied (visited
     history, not current state). *)
  let f2 () =
    let f = Fsm.create ~n_states:3 ~initial:0 in
    Fsm.add_transition f ~src:0 ~dst:1 "x";
    Fsm.add_transition f ~src:1 ~dst:2 "y";
    f
  in
  let cfg : (string, unit) Engine.config =
    {
      fsm_of = (fun node -> if node = 2 then f2 () else chain_fsm ("e1", "e2"));
      prerequisites =
        (fun ~node ~label ~payload:_ ->
          if node = 1 && label = "e1" then [ (2, 1) ] else []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  let items, stats =
    engine_run cfg ~events:[ (2, "x", None); (2, "y", None); (1, "e1", None) ]
  in
  Alcotest.(check int) "nothing inferred" 0 stats.emitted_inferred;
  Alcotest.(check (list string)) "order" [ "x"; "y"; "e1" ] (flow_labels items)

let prerequisite_cycle_terminates () =
  (* Mutual prerequisites: e1 needs node 2 mid, e3 needs node 1 mid. The
     driving-set guard must break the cycle. *)
  let cfg : (string, unit) Engine.config =
    {
      fsm_of = (fun node -> chain_fsm (labels_of node));
      prerequisites =
        (fun ~node ~label ~payload:_ ->
          match (node, label) with
          | 1, "e1" -> [ (2, s_mid) ]
          | 2, "e3" -> [ (1, s_mid) ]
          | _ -> []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  let items, _ = engine_run cfg ~events:[ event 1 "e1"; event 2 "e3" ] in
  (* Both events appear; the cycle resolved by inferring one side. *)
  Alcotest.(check bool) "e1 present" true
    (List.exists (fun (i : (string, unit) Engine.item) -> i.label = "e1" && not i.inferred) items);
  Alcotest.(check bool) "e3 present" true
    (List.exists (fun (i : (string, unit) Engine.item) -> i.label = "e3" && not i.inferred) items)

let unsatisfiable_prerequisite_ignored () =
  (* A prerequisite naming an unreachable state cannot be driven; the event
     still fires (best effort, matching step 3's permissiveness). *)
  let cfg : (string, unit) Engine.config =
    {
      fsm_of = (fun node -> chain_fsm (labels_of node));
      prerequisites =
        (fun ~node ~label ~payload:_ ->
          match (node, label) with
          | 1, "e1" -> [ (2, 42) ] (* state 42 does not exist *)
          | _ -> []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  match engine_run cfg ~events:[ event 1 "e1" ] with
  | exception _ -> Alcotest.fail "must not raise"
  | items, _ ->
      Alcotest.(check int) "fired anyway" 1 (List.length items)

let payload_synthesis_called () =
  let synthesized = ref [] in
  let cfg : (string, string) Engine.config =
    {
      fsm_of = (fun _ -> chain_fsm ("e1", "e2"));
      prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []);
      infer_payload =
        (fun ~node:_ ~label ->
          synthesized := label :: !synthesized;
          Some ("payload-" ^ label));
    }
  in
  let items, _ = engine_run cfg ~events:[ (1, "e2", Some "logged") ] in
  Alcotest.(check (list string)) "synthesis for lost e1" [ "e1" ] !synthesized;
  match items with
  | [ first; second ] ->
      Alcotest.(check (option string)) "synthesized payload"
        (Some "payload-e1") first.payload;
      Alcotest.(check (option string)) "original payload" (Some "logged")
        second.payload
  | _ -> Alcotest.fail "two items expected"

let stats_match_obs_counters () =
  (* Engine.stats is defined as the delta of the Refill_obs counters over
     the run; check the two agree on a cascading-inference scenario. *)
  let module C = Refill_obs.Metrics.Counter in
  let c_logged = C.v "refill_logged_events_total" in
  let c_inferred = C.v "refill_inferred_events_total" in
  let c_skipped = C.v "refill_skipped_events_total" in
  let c_cascades = C.v "refill_prereq_cascades_total" in
  let h_depth = Refill_obs.Metrics.Histogram.v "refill_drive_depth" in
  let logged0 = C.value c_logged
  and inferred0 = C.value c_inferred
  and skipped0 = C.value c_skipped
  and cascades0 = C.value c_cascades
  and depth_obs0 = Refill_obs.Metrics.Histogram.count h_depth in
  let _, stats =
    engine_run (config ~prerequisites:cascade_prereqs)
      ~events:[ event 1 "e2"; (1, "bogus", None) ]
  in
  Alcotest.(check int) "logged delta" stats.emitted_logged
    (C.value c_logged - logged0);
  Alcotest.(check int) "inferred delta" stats.emitted_inferred
    (C.value c_inferred - inferred0);
  Alcotest.(check int) "skipped delta" stats.skipped
    (C.value c_skipped - skipped0);
  (* e2's cascade drives nodes 2 then 3, so at least two prerequisite
     cascades ran and the depth histogram recorded them. *)
  Alcotest.(check bool) "cascades counted" true
    (C.value c_cascades - cascades0 >= 2);
  Alcotest.(check bool) "drive depth observed" true
    (Refill_obs.Metrics.Histogram.count h_depth - depth_obs0 >= 2)

(* §IV.B: the merged event list must preserve each node's local order,
   but the cross-node interleaving is arbitrary.  [shuffle_merge] draws a
   random interleaving of the per-node subsequences of [events]. *)
let shuffle_merge rng events =
  let nodes = List.sort_uniq compare (List.map (fun (n, _, _) -> n) events) in
  let queues =
    List.map
      (fun n -> ref (List.filter (fun (n', _, _) -> n' = n) events))
      nodes
  in
  let out = ref [] in
  let total = List.length events in
  for _ = 1 to total do
    let nonempty = List.filter (fun q -> !q <> []) queues in
    let q = List.nth nonempty (Prelude.Rng.int rng (List.length nonempty)) in
    match !q with
    | e :: rest ->
        q := rest;
        out := e :: !out
    | [] -> assert false
  done;
  List.rev !out

(* §IV.B claims the merged list's cross-node interleaving is arbitrary.
   That holds when each node's subsequence is a lossy projection of a
   valid local run (which real logs are): whatever the interleaving, the
   reconstruction has the same stats, the same event multiset, and the
   same per-node subsequences.  (For garbage inputs — labels outside a
   node's alphabet, impossible repeats — drives can legitimately bridge
   past unfireable events differently, so no such invariant exists.) *)
let interleaving_invariance_on_projections =
  QCheck.Test.make
    ~name:"reconstruction invariant under cross-node interleaving"
    ~count:300
    QCheck.(pair (int_bound 63) (int_bound 1_000_000))
    (fun (mask, seed) ->
      (* Bit 2i keeps node (i+1)'s first event, bit 2i+1 its second: every
         lossy projection of the three two-event local runs. *)
      let events =
        List.concat_map
          (fun i ->
            let node = i + 1 in
            let la, lb = labels_of node in
            (if mask land (1 lsl (2 * i)) <> 0 then [ (node, la, None) ]
             else [])
            @
            if mask land (1 lsl ((2 * i) + 1)) <> 0 then [ (node, lb, None) ]
            else [])
          [ 0; 1; 2 ]
      in
      let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
      let run es =
        engine_run (config ~prerequisites:cascade_prereqs) ~events:es
      in
      let items_a, stats_a = run events in
      let items_b, stats_b = run (shuffle_merge rng events) in
      let k (i : (string, unit) Engine.item) = (i.node, i.label, i.inferred) in
      let multiset items = List.sort compare (List.map k items) in
      let per_node n items =
        List.filter_map
          (fun (i : (string, unit) Engine.item) ->
            if i.node = n then Some (k i) else None)
          items
      in
      stats_a = stats_b
      && multiset items_a = multiset items_b
      && List.for_all
           (fun n -> per_node n items_a = per_node n items_b)
           [ 1; 2; 3 ])

(* On complete (lossless) logs the reconstruction itself is invariant:
   same event multiset and same per-node subsequences, whatever the
   interleaving. *)
let interleaving_preserves_lossless_output =
  QCheck.Test.make
    ~name:"lossless output invariant under cross-node interleaving"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let events =
        [
          event 1 "e1"; event 1 "e2"; event 2 "e3"; event 2 "e4";
          event 3 "e5"; event 3 "e6";
        ]
      in
      let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
      let run es =
        fst (engine_run (config ~prerequisites:cascade_prereqs) ~events:es)
      in
      let canonical = run events in
      let shuffled = run (shuffle_merge rng events) in
      let key (i : (string, unit) Engine.item) = (i.node, i.label, i.inferred) in
      let multiset items = List.sort compare (List.map key items) in
      let per_node node items =
        List.filter_map
          (fun (i : (string, unit) Engine.item) ->
            if i.node = node then Some (key i) else None)
          items
      in
      multiset canonical = multiset shuffled
      && List.for_all
           (fun n -> per_node n canonical = per_node n shuffled)
           [ 1; 2; 3 ])

let intra_counter_counts_only_taken_transitions () =
  (* Regression for the counter-inflation bug: [consume_helps] probes
     [Fsm.infer_intra_id] speculatively while a drive decides whether a
     pending event helps, and those probes must not count.  Here
     [e2@1; e4@2] takes exactly two intra transitions (e2 bridges over the
     lost e1, e4 over the lost e3), but e2's drive of node 2 also *probes*
     the intra derivation for the pending e4 — with the counter inside the
     FSM query the delta read 3. *)
  let module C = Refill_obs.Metrics.Counter in
  let c_intra = C.v "refill_intra_inferences_total" in
  let before = C.value c_intra in
  let items, stats =
    engine_run (config ~prerequisites:cascade_prereqs)
      ~events:[ event 1 "e2"; event 2 "e4" ]
  in
  Alcotest.(check (list string)) "reconstructed flow"
    [ "e1"; "e3"; "e5"; "e6"; "e4"; "e2" ]
    (flow_labels items);
  Alcotest.(check int) "both logged events fired" 2 stats.emitted_logged;
  Alcotest.(check int) "exactly the two intra transitions taken" 2
    (C.value c_intra - before)

(* Strong ordering invariant: whenever an event with a prerequisite fires,
   the prerequisite state has been entered strictly earlier in the flow. *)
let prerequisites_precede_in_flow =
  QCheck.Test.make ~name:"prerequisite states precede dependent events"
    ~count:300
    QCheck.(small_list (pair (int_range 1 3) (int_range 0 5)))
    (fun raw ->
      let all_labels = [| "e1"; "e2"; "e3"; "e4"; "e5"; "e6" |] in
      let events = List.map (fun (n, l) -> (n, all_labels.(l), None)) raw in
      let items, _ =
        engine_run (config ~prerequisites:cascade_prereqs) ~events
      in
      (* Track, per node, the flow index at which each state was entered. *)
      let entered = Hashtbl.create 16 in
      List.for_all
        (fun (ok, idx) -> ok && idx >= 0)
        (List.mapi
           (fun idx (i : (string, unit) Engine.item) ->
             let ok =
               List.for_all
                 (fun (rnode, rstate) ->
                   match Hashtbl.find_opt entered (rnode, rstate) with
                   | Some earlier -> earlier < idx
                   | None -> false)
                 (cascade_prereqs i.node i.label)
             in
             Hashtbl.replace entered (i.node, i.entered) idx;
             (* First entry wins; replace only if absent. *)
             (match Hashtbl.find_opt entered (i.node, i.entered) with
             | Some prev when prev < idx ->
                 Hashtbl.replace entered (i.node, i.entered) prev
             | _ -> ());
             (ok, idx))
           items))

let logged_events_emitted_once =
  QCheck.Test.make ~name:"every input event is fired or skipped exactly once"
    ~count:200
    QCheck.(small_list (pair (int_range 1 3) (int_range 0 5)))
    (fun raw ->
      let all_labels = [| "e1"; "e2"; "e3"; "e4"; "e5"; "e6" |] in
      let events = List.map (fun (n, l) -> (n, all_labels.(l), None)) raw in
      let items, stats =
        engine_run (config ~prerequisites:cascade_prereqs) ~events
      in
      let logged =
        List.length
          (List.filter (fun (i : (string, unit) Engine.item) -> not i.inferred) items)
      in
      logged = stats.emitted_logged
      && stats.emitted_logged + stats.skipped = List.length events)

let () =
  Alcotest.run "refill-engine"
    [
      ( "fig3",
        [
          Alcotest.test_case "(a) cascade, full logs" `Quick fig3a_full_logs;
          Alcotest.test_case "(a) cascade, only e2" `Quick fig3a_only_e2;
          Alcotest.test_case "(b) 1-to-many" `Quick fig3b_one_to_many;
          Alcotest.test_case "(c) many-to-1" `Quick fig3c_many_to_one;
          Alcotest.test_case "(d) mixed" `Quick fig3d_mixed;
          Alcotest.test_case "(a) merge-order insensitive" `Quick
            fig3a_insensitive_to_merge_order;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "skips unfireable" `Quick unfireable_events_skipped;
          Alcotest.test_case "intra inferred prefix" `Quick
            intra_fires_with_inferred_prefix;
          Alcotest.test_case "historical prerequisite" `Quick
            historical_prerequisite;
          Alcotest.test_case "cycle terminates" `Quick
            prerequisite_cycle_terminates;
          Alcotest.test_case "unsatisfiable prerequisite" `Quick
            unsatisfiable_prerequisite_ignored;
          Alcotest.test_case "payload synthesis" `Quick payload_synthesis_called;
          Alcotest.test_case "stats match obs counters" `Quick
            stats_match_obs_counters;
          Alcotest.test_case "intra counter: taken transitions only" `Quick
            intra_counter_counts_only_taken_transitions;
          QCheck_alcotest.to_alcotest logged_events_emitted_once;
          QCheck_alcotest.to_alcotest prerequisites_precede_in_flow;
          QCheck_alcotest.to_alcotest interleaving_invariance_on_projections;
          QCheck_alcotest.to_alcotest interleaving_preserves_lossless_output;
        ] );
    ]
