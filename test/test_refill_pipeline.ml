(* Integration tests: simulator → logs → REFILL → verdicts, scored against
   ground truth. These are the repository's core end-to-end guarantees. *)

let run_tiny () =
  Scenario.Citysee.run Scenario.Citysee.tiny

let tiny = lazy (run_tiny ())

let collected () = Scenario.Citysee.collected (Lazy.force tiny)

let truth () = Node.Network.truth (Lazy.force tiny).network

let sink () = (Lazy.force tiny).sink

(* Collect [Reconstruct.run]'s emissions into the list shape these tests
   score. *)
let reconstruct_flows ?jobs collected ~sink =
  let config = { Refill.Config.default with jobs } in
  let acc = ref [] in
  Refill.Reconstruct.run ~config collected ~sink ~emit:(fun f ->
      acc := f :: !acc);
  List.rev !acc

let verdict_causes flows =
  List.map
    (fun (f : Refill.Flow.t) ->
      ((f.origin, f.seq), (Refill.Classify.classify f).cause))
    flows

let lossless_cause_accuracy () =
  let flows = reconstruct_flows (collected ()) ~sink:(sink ()) in
  let confusion =
    Analysis.Metrics.confusion ~truth:(truth ()) ~verdicts:(verdict_causes flows)
  in
  Alcotest.(check bool) "some packets" true (confusion.total > 100);
  Alcotest.(check (float 1e-9)) "perfect on complete logs" 1.0
    (Analysis.Metrics.accuracy confusion)

let lossless_position_accuracy () =
  let flows = reconstruct_flows (collected ()) ~sink:(sink ()) in
  let positions =
    List.map
      (fun (f : Refill.Flow.t) ->
        ((f.origin, f.seq), (Refill.Classify.classify f).loss_node))
      flows
  in
  Alcotest.(check (float 1e-9)) "loss positions exact" 1.0
    (Analysis.Metrics.position_accuracy ~truth:(truth ()) ~positions)

let lossless_delivered_flows_have_no_inference () =
  let flows = reconstruct_flows (collected ()) ~sink:(sink ()) in
  List.iter
    (fun (f : Refill.Flow.t) ->
      match Logsys.Truth.find (truth ()) ~origin:f.origin ~seq:f.seq with
      | Some { cause = Logsys.Cause.Delivered; _ } ->
          Alcotest.(check int) "no inferred events for delivered packets" 0
            f.stats.emitted_inferred
      | Some _ | None -> ())
    flows

let flows_preserve_local_log_order () =
  let collected = collected () in
  let flows = reconstruct_flows collected ~sink:(sink ()) in
  List.iter
    (fun (f : Refill.Flow.t) ->
      (* For each node, the logged (non-inferred) items must appear in the
         same relative order as in that node's log. *)
      let groups =
        Logsys.Collected.events_of_packet collected ~origin:f.origin
          ~seq:f.seq
      in
      List.iter
        (fun (node, records) ->
          let logged_kinds =
            List.filter_map
              (fun (i : Refill.Flow.item) ->
                if i.node = node && not i.inferred then
                  Option.map
                    (fun (r : Logsys.Record.t) -> r.gseq)
                    i.payload
                else None)
              (Refill.Flow.items f)
          in
          let expected =
            List.map (fun (r : Logsys.Record.t) -> r.gseq) records
          in
          (* Flow may omit skipped events; must be a subsequence. *)
          let rec subsequence xs ys =
            match (xs, ys) with
            | [], _ -> true
            | _, [] -> false
            | x :: xt, y :: yt ->
                if x = y then subsequence xt yt else subsequence xs yt
          in
          Alcotest.(check bool)
            (Printf.sprintf "node %d order for packet (%d,%d)" node f.origin
               f.seq)
            true
            (subsequence logged_kinds expected))
        groups)
    flows

let merge_order_does_not_change_verdicts () =
  (* Reconstruction consumes per-packet groups; Collected offers two whole-log
     merges — verify the per-packet engine yields identical verdicts when we
     reverse the cross-node group order by reconstructing from a reversed-id
     relabelling of the same logs. Cheaper equivalent: verdicts must be a
     pure function of the collected snapshot. *)
  let flows1 = reconstruct_flows (collected ()) ~sink:(sink ()) in
  let flows2 = reconstruct_flows (collected ()) ~sink:(sink ()) in
  Alcotest.(check bool) "deterministic"
    true
    (verdict_causes flows1 = verdict_causes flows2)

let lossy_accuracy_degrades_gracefully () =
  let scenario = Lazy.force tiny in
  let delivered_db =
    Logsys.Truth.fold (truth ()) ~init:[] ~f:(fun acc key fate ->
        if Logsys.Cause.equal fate.cause Logsys.Cause.Delivered then
          (key, fate.resolved_at) :: acc
        else acc)
  in
  let accuracy_at p =
    let rng = Prelude.Rng.create ~seed:99L in
    let lossy =
      Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng (collected ())
    in
    let flows = reconstruct_flows lossy ~sink:scenario.sink in
    let raw =
      List.map
        (fun (f : Refill.Flow.t) ->
          ((f.origin, f.seq), Refill.Classify.classify f))
        flows
    in
    let acc verdicts =
      Analysis.Metrics.accuracy
        (Analysis.Metrics.confusion ~truth:(truth ())
           ~verdicts:
             (List.map
                (fun (k, (v : Refill.Classify.verdict)) -> (k, v.cause))
                verdicts))
    in
    (acc raw, acc (Analysis.Pipeline.refine_with_server ~delivered_db raw))
  in
  let raw0, refined0 = accuracy_at 0.0 in
  let raw2, refined2 = accuracy_at 0.2 in
  let raw5, refined5 = accuracy_at 0.5 in
  Alcotest.(check (float 1e-9)) "lossless perfect (raw)" 1.0 raw0;
  Alcotest.(check (float 1e-9)) "lossless perfect (refined)" 1.0 refined0;
  (* Raw WSN-log verdicts degrade smoothly... *)
  Alcotest.(check bool) "raw still useful at 20%" true (raw2 > 0.7);
  Alcotest.(check bool) "raw monotone" true (raw0 >= raw2 && raw2 >= raw5);
  (* ... and reconciling with the server DB (the paper's §V methodology)
     keeps verdicts strong even under heavy log loss. *)
  Alcotest.(check bool) "refined strong at 20%" true (refined2 > 0.9);
  Alcotest.(check bool) "refined strong at 50%" true (refined5 > 0.9)

let refill_beats_naive_under_loss () =
  let scenario = Lazy.force tiny in
  let rng = Prelude.Rng.create ~seed:7L in
  let lossy =
    Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.25) rng (collected ())
  in
  let refill_acc =
    let flows = reconstruct_flows lossy ~sink:scenario.sink in
    Analysis.Metrics.accuracy
      (Analysis.Metrics.confusion ~truth:(truth ())
         ~verdicts:(verdict_causes flows))
  in
  let naive_acc =
    let verdicts =
      Baseline.Naive.classify_all lossy ~sink:scenario.sink
      |> List.map (fun (key, (v : Baseline.Naive.verdict)) -> (key, v.cause))
    in
    Analysis.Metrics.accuracy
      (Analysis.Metrics.confusion ~truth:(truth ()) ~verdicts)
  in
  Alcotest.(check bool)
    (Printf.sprintf "refill (%.2f) > naive (%.2f)" refill_acc naive_acc)
    true (refill_acc > naive_acc)

let event_recall_high_under_loss () =
  let scenario = Lazy.force tiny in
  let rng = Prelude.Rng.create ~seed:13L in
  let lossy =
    Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.3) rng (collected ())
  in
  let flows = reconstruct_flows lossy ~sink:scenario.sink in
  let gt = Logsys.Logger.ground_truth (Node.Network.logger scenario.network) in
  let q = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows in
  Alcotest.(check bool)
    (Printf.sprintf "recall %.2f > 0.75 (30%% of records destroyed)"
       q.event_recall)
    true (q.event_recall > 0.75);
  Alcotest.(check bool)
    (Printf.sprintf "precision %.2f > 0.9" q.event_precision)
    true (q.event_precision > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "order agreement %.2f > 0.9" q.order_agreement)
    true (q.order_agreement > 0.9)

let reconstruction_inference_only_under_loss =
  QCheck.Test.make ~name:"inferred events appear only when logs are lossy"
    ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* Delivered packets on complete logs never need inference; with the
         uniform loss model applied, inference may appear but logged events
         never exceed the surviving record count. *)
      let scenario = Lazy.force tiny in
      let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
      let lossy =
        Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.2) rng
          (collected ())
      in
      let flows = reconstruct_flows lossy ~sink:scenario.sink in
      let summary = Refill.Reconstruct.summarize flows in
      summary.logged_events + summary.skipped_events
      = Logsys.Collected.total lossy)

let summary_totals () =
  let flows = reconstruct_flows (collected ()) ~sink:(sink ()) in
  let s = Refill.Reconstruct.summarize flows in
  Alcotest.(check int) "packet count" (List.length flows) s.packets;
  Alcotest.(check bool) "processed everything" true
    (s.logged_events + s.skipped_events = Logsys.Collected.total (collected ()))

let empty_packet_reconstruction () =
  let flow =
    Refill.Reconstruct.packet (collected ()) ~origin:9999 ~seq:0 ~sink:(sink ())
  in
  Alcotest.(check int) "empty" 0 (Refill.Flow.length flow)

let par_map_array_exception () =
  (* A worker exception must surface in the caller — with every helper
     domain joined first, so the pool is reusable afterwards. *)
  let input = Array.init 2048 Fun.id in
  Alcotest.check_raises "first worker exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Refill.Par.map_array ~jobs:4
           (fun i -> if i = 1500 then failwith "boom" else i * i)
           input
          : int array));
  let out = Refill.Par.map_array ~jobs:4 (fun i -> i + 1) input in
  Alcotest.(check int) "later runs unaffected" 2048 (Array.length out);
  Alcotest.(check int) "order preserved" 2001 out.(2000)

(* -- Packed flows ------------------------------------------------------------ *)

let lossy p seed =
  if p = 0. then collected ()
  else
    Logsys.Collected.lossify (Logsys.Loss_model.uniform p)
      (Prelude.Rng.create ~seed) (collected ())

(* The items [Engine.process] emits for one packet, reconstructed the way
   [Reconstruct] runs the engine. *)
let engine_items records ~origin ~seq ~sink =
  let p = Refill.Protocol.pack_events records ~origin ~sink in
  let config = Refill.Protocol.make_config ~records ~origin ~seq ~sink in
  let acc = ref [] in
  ignore
    (Refill.Engine.process config
       (Refill.Engine.Packed
          {
            nodes = p.p_nodes;
            labels = p.p_labels;
            ids = p.p_ids;
            payloads = p.p_payloads;
            pre_nodes = p.p_pre_nodes;
            pre_states = p.p_pre_states;
            srcs = p.p_srcs;
          })
       ~emit:(fun it -> acc := it :: !acc)
      : Refill.Engine.stats);
  List.rev !acc

let same_item (a : Refill.Flow.item) (b : Refill.Flow.item) =
  a.node = b.node && a.label = b.label && a.inferred = b.inferred
  && a.entered = b.entered
  &&
  match (a.payload, b.payload) with
  | None, None -> true
  | Some r, Some r' -> Logsys.Record.equal r r'
  | Some _, None | None, Some _ -> false

(* [Flow.items] rebuilds exactly what the engine emitted, payloads
   included, for batch flows (payloads in the index's arena) and stream
   flows (payloads in the evicted records) alike. *)
let items_view_is_exact () =
  List.iter
    (fun (p, seed) ->
      let c = lossy p seed in
      let sink = sink () in
      let stream_flows = Hashtbl.create 1024 in
      let st =
        Refill.Stream.create
          ~config:
            { Refill.Config.default with watermark = max_int / 2; shards = 2 }
          ~sink
          ~emit:(fun e -> Hashtbl.replace stream_flows (Refill.Flow.packet_key e.flow) e.flow)
          ()
      in
      Refill.Stream.feed st (Logsys.Collected.merged_by_time c);
      ignore (Refill.Stream.finish st : Refill.Stream.summary);
      let flows = reconstruct_flows c ~sink in
      Alcotest.(check int) "every packet streamed" (List.length flows)
        (Hashtbl.length stream_flows);
      List.iter
        (fun (f : Refill.Flow.t) ->
          let expected =
            engine_items
              (Logsys.Collected.packet_records c ~origin:f.origin ~seq:f.seq)
              ~origin:f.origin ~seq:f.seq ~sink
          in
          List.iter
            (fun (kind, g) ->
              let got = Refill.Flow.items g in
              if
                not
                  (List.length got = List.length expected
                  && List.for_all2 same_item got expected)
              then
                Alcotest.failf "loss %.1f: %s flow (%d, %d) differs from the \
                                engine's items" p kind f.origin f.seq)
            [ ("batch", f); ("stream", Hashtbl.find stream_flows (f.origin, f.seq)) ])
        flows)
    [ (0., 1L); (0.3, 5L); (0.6, 9L) ]

(* A retained batch flow is its packed items and a pointer to the index's
   arena: at most 8 heap words per item, everything it reaches counted
   except the shared arena. *)
let retained_flow_size () =
  let c = lossy 0.3 5L in
  let flows = Array.of_list (reconstruct_flows c ~sink:(sink ())) in
  let items = Array.fold_left (fun n f -> n + Refill.Flow.length f) 0 flows in
  let arena = Logsys.Arena.Packets.arena (Logsys.Collected.packets c) in
  let words =
    Obj.reachable_words (Obj.repr flows) - Obj.reachable_words (Obj.repr arena)
  in
  let per_item = float_of_int words /. float_of_int items in
  if per_item > 8. then
    Alcotest.failf "%.1f heap words per retained item (%d words, %d items)"
      per_item words items

let () =
  Alcotest.run "refill-pipeline"
    [
      ( "lossless",
        [
          Alcotest.test_case "cause accuracy 100%" `Quick
            lossless_cause_accuracy;
          Alcotest.test_case "position accuracy 100%" `Quick
            lossless_position_accuracy;
          Alcotest.test_case "no inference for delivered" `Quick
            lossless_delivered_flows_have_no_inference;
          Alcotest.test_case "local order preserved" `Quick
            flows_preserve_local_log_order;
          Alcotest.test_case "deterministic" `Quick
            merge_order_does_not_change_verdicts;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "graceful degradation" `Quick
            lossy_accuracy_degrades_gracefully;
          Alcotest.test_case "beats naive baseline" `Quick
            refill_beats_naive_under_loss;
          Alcotest.test_case "event recall/precision/order" `Quick
            event_recall_high_under_loss;
          QCheck_alcotest.to_alcotest reconstruction_inference_only_under_loss;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "summary totals" `Quick summary_totals;
          Alcotest.test_case "missing packet" `Quick
            empty_packet_reconstruction;
          Alcotest.test_case "item view equals the engine's items" `Quick
            items_view_is_exact;
          Alcotest.test_case "retained flow size" `Quick retained_flow_size;
        ] );
      ( "par",
        [
          Alcotest.test_case "worker exception propagates" `Quick
            par_map_array_exception;
        ] );
    ]
