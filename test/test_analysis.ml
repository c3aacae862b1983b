(* Tests for the analysis layer: metrics, pipeline, distributions, figures. *)

let pipeline =
  lazy
    (let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
     Analysis.Pipeline.make ~log_loss:Logsys.Loss_model.none scenario)

(* -- Metrics ------------------------------------------------------------------ *)

let truth_with entries =
  let t = Logsys.Truth.create () in
  List.iteri
    (fun i (cause, loss_node) ->
      Logsys.Truth.record t ~origin:0 ~seq:i
        { cause; loss_node; path = []; generated_at = 0.; resolved_at = 0. })
    entries;
  t

let confusion_counts () =
  let truth =
    truth_with
      [
        (Logsys.Cause.Delivered, None);
        (Logsys.Cause.Timeout_loss, Some 3);
        (Logsys.Cause.Timeout_loss, Some 4);
      ]
  in
  let verdicts =
    [
      ((0, 0), Logsys.Cause.Delivered);
      ((0, 1), Logsys.Cause.Timeout_loss);
      ((0, 2), Logsys.Cause.Received_loss);
      ((9, 9), Logsys.Cause.Delivered) (* unknown packet ignored *);
    ]
  in
  let c = Analysis.Metrics.confusion ~truth ~verdicts in
  Alcotest.(check int) "total" 3 c.total;
  Alcotest.(check int) "agree" 2 c.agree;
  Alcotest.(check (float 1e-9)) "accuracy" (2. /. 3.)
    (Analysis.Metrics.accuracy c);
  let per = Analysis.Metrics.per_cause c in
  let _, precision, recall, support =
    List.find (fun (cause, _, _, _) -> cause = Logsys.Cause.Timeout_loss) per
  in
  Alcotest.(check int) "timeout support" 2 support;
  Alcotest.(check (float 1e-9)) "timeout precision" 1. precision;
  Alcotest.(check (float 1e-9)) "timeout recall" 0.5 recall

let position_accuracy_counts () =
  let truth =
    truth_with
      [
        (Logsys.Cause.Delivered, None);
        (Logsys.Cause.Timeout_loss, Some 3);
        (Logsys.Cause.Received_loss, Some 5);
      ]
  in
  let positions =
    [ ((0, 0), None); ((0, 1), Some 3); ((0, 2), Some 9) ]
  in
  Alcotest.(check (float 1e-9)) "half of losses placed" 0.5
    (Analysis.Metrics.position_accuracy ~truth ~positions)

let flow_quality_perfect_on_lossless () =
  let p = Lazy.force pipeline in
  let gt =
    Logsys.Logger.ground_truth (Node.Network.logger p.scenario.network)
  in
  let q = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows:p.flows in
  Alcotest.(check bool)
    (Printf.sprintf "recall %.3f ≈ 1" q.event_recall)
    true (q.event_recall > 0.99);
  (* The reconstructed flow is a *causal* linearization: pairs with no
     causal constraint (a sender's ack vs. the receiver's onward trans) may
     legally deviate from wall-clock order, so agreement sits below 1 even
     on lossless logs. *)
  Alcotest.(check bool)
    (Printf.sprintf "order %.3f > 0.9" q.order_agreement)
    true (q.order_agreement > 0.9)

let path_quality_lossless () =
  let p = Lazy.force pipeline in
  let q = Analysis.Metrics.path_quality ~truth:p.truth ~flows:p.flows in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.3f = 1 on lossless logs" q.exact)
    true (q.exact > 0.999);
  Alcotest.(check bool) "similarity ≈ 1" true (q.prefix_similarity > 0.99)

let path_quality_counts_acked_extension () =
  (* Truth path stops before the sink (acked loss at the sink: the receiver
     logged nothing); REFILL's inferred extra hop still counts as exact. *)
  let truth = Logsys.Truth.create () in
  Logsys.Truth.record truth ~origin:1 ~seq:0
    {
      cause = Logsys.Cause.Acked_loss;
      loss_node = Some 0;
      path = [ 1; 2 ];
      generated_at = 0.;
      resolved_at = 1.;
    };
  let record node kind : Logsys.Record.t =
    { node; kind; origin = 1; pkt_seq = 0; true_time = 0.; gseq = 0 }
  in
  let records =
    [
      record 1 Gen;
      record 1 (Trans { to_ = 2 });
      record 1 (Ack_recvd { to_ = 2 });
      record 2 (Recv { from = 1 });
      record 2 (Trans { to_ = 0 });
      record 2 (Ack_recvd { to_ = 0 });
    ]
  in
  let flow =
    Refill.Reconstruct.of_records (Array.of_list records) ~origin:1 ~seq:0
      ~sink:0
  in
  let q = Analysis.Metrics.path_quality ~truth ~flows:[ flow ] in
  Alcotest.(check (list int)) "reconstructed path has the extra hop"
    [ 1; 2; 0 ] (Refill.Flow.nodes_visited flow);
  Alcotest.(check (float 1e-9)) "still exact" 1. q.exact

(* -- Pipeline ------------------------------------------------------------------- *)

let pipeline_verdicts_complete () =
  let p = Lazy.force pipeline in
  Alcotest.(check int) "verdict per packet"
    (Logsys.Truth.count p.truth)
    (List.length p.refill);
  Alcotest.(check int) "flows per packet"
    (Logsys.Truth.count p.truth)
    (List.length p.flows)

let pipeline_loss_times_cover_missing () =
  let p = Lazy.force pipeline in
  Alcotest.(check int) "losses = packets - delivered"
    (Logsys.Truth.count p.truth - List.length p.delivered_db)
    (List.length p.loss_times);
  List.iter
    (fun key ->
      Alcotest.(check bool) "lost packets not in db" true
        (not (List.mem_assoc key p.delivered_db)))
    (Analysis.Pipeline.lost_keys p)

let pipeline_refinement () =
  let db = [ ((1, 1), 10.) ] in
  let mk cause =
    { Refill.Classify.cause; loss_node = None; next_hop = None }
  in
  let refined =
    Analysis.Pipeline.refine_with_server ~delivered_db:db
      [
        ((1, 1), mk Logsys.Cause.Received_loss);
        ((1, 2), mk Logsys.Cause.Delivered);
        ((1, 3), mk Logsys.Cause.Timeout_loss);
      ]
  in
  let cause k =
    (List.assoc k refined).Refill.Classify.cause
  in
  Alcotest.(check string) "db wins" "delivered" (Logsys.Cause.name (cause (1, 1)));
  Alcotest.(check string) "missing delivered → outage" "server-outage"
    (Logsys.Cause.name (cause (1, 2)));
  Alcotest.(check string) "loss verdicts kept" "timeout"
    (Logsys.Cause.name (cause (1, 3)))

let pipeline_accessors () =
  let p = Lazy.force pipeline in
  match Analysis.Pipeline.lost_keys p with
  | [] -> () (* a lossless tiny run can in principle lose nothing *)
  | (origin, seq) :: _ ->
      Alcotest.(check bool) "verdict exists" true
        (Analysis.Pipeline.refill_cause p ~origin ~seq <> None);
      Alcotest.(check bool) "loss time exists" true
        (Analysis.Pipeline.estimated_loss_time p ~origin ~seq <> None)

(* -- Distributions ----------------------------------------------------------------- *)

let temporal_views () =
  let p = Lazy.force pipeline in
  let src = Analysis.Temporal.source_view p in
  let pos = Analysis.Temporal.position_view p in
  Alcotest.(check int) "one point per loss" (List.length p.loss_times)
    (List.length src);
  Alcotest.(check bool) "positions ⊆ losses" true
    (List.length pos <= List.length src);
  (* The paper's Fig. 4 vs 5 contrast. *)
  Alcotest.(check bool) "positions at most as spread as sources" true
    (Analysis.Temporal.distinct_nodes pos
    <= Analysis.Temporal.distinct_nodes src);
  let grouped = Analysis.Temporal.by_cause src in
  let total = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 grouped in
  Alcotest.(check int) "grouping partitions" (List.length src) total

let temporal_concentration () =
  let points =
    [
      { Analysis.Temporal.time = 0.; node = 1; cause = Logsys.Cause.Received_loss };
      { Analysis.Temporal.time = 1.; node = 1; cause = Logsys.Cause.Received_loss };
      { Analysis.Temporal.time = 2.; node = 1; cause = Logsys.Cause.Received_loss };
      { Analysis.Temporal.time = 3.; node = 2; cause = Logsys.Cause.Received_loss };
    ]
  in
  Alcotest.(check int) "distinct" 2 (Analysis.Temporal.distinct_nodes points);
  Alcotest.(check (float 1e-9)) "top-1 share" 0.75
    (Analysis.Temporal.node_concentration points ~top:1)

let spatial_counts () =
  let p = Lazy.force pipeline in
  let losses = Analysis.Spatial.losses_by_position p ~cause:None in
  Alcotest.(check int) "row per node"
    (Net.Topology.n_nodes (Node.Network.topology p.scenario.network))
    (List.length losses);
  let counted =
    List.fold_left (fun acc (l : Analysis.Spatial.node_losses) -> acc + l.count) 0 losses
  in
  Alcotest.(check bool) "counts bounded by losses" true
    (counted <= List.length p.loss_times);
  let top = Analysis.Spatial.top_k losses ~k:3 in
  Alcotest.(check int) "top-3" 3 (List.length top);
  Alcotest.(check bool) "descending" true
    (match top with
    | a :: b :: _ -> a.count >= b.count
    | _ -> false)

let composition_rows () =
  let p = Lazy.force pipeline in
  let rows = Analysis.Composition.per_day p in
  Alcotest.(check int) "row per day" p.scenario.params.days
    (List.length rows);
  List.iter
    (fun (r : Analysis.Composition.day_row) ->
      let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. r.shares in
      if r.total_losses > 0 then
        Alcotest.(check (float 1e-6)) "shares sum to 1" 1. sum)
    rows

let breakdown_shares () =
  let p = Lazy.force pipeline in
  let b = Analysis.Breakdown.of_pipeline p in
  Alcotest.(check int) "loss totals" (List.length p.loss_times) b.total_losses;
  let sum =
    b.server_outage +. b.received_total +. b.acked_total +. b.duplicate
    +. b.timeout +. b.overflow +. b.unknown
  in
  if b.total_losses > 0 then
    Alcotest.(check (float 1e-6)) "shares partition" 1. sum;
  Alcotest.(check (float 1e-9)) "received split"
    b.received_total
    (b.received_sink +. b.received_other);
  (* Ground-truth variant agrees on totals. *)
  let bt = Analysis.Breakdown.of_truth p.truth ~sink:p.scenario.sink in
  Alcotest.(check int) "truth losses" (Logsys.Truth.loss_count p.truth)
    bt.total_losses

let breakdown_paper_reference () =
  let paper = Analysis.Breakdown.paper in
  Alcotest.(check (float 1e-9)) "server" 0.226 paper.server_outage;
  Alcotest.(check (float 1e-9)) "acked sink" 0.380 paper.acked_sink;
  Alcotest.(check int) "11 display rows" 11
    (List.length (Analysis.Breakdown.rows paper))

(* -- Latency ----------------------------------------------------------------------- *)

let latency_analytics () =
  let p = Lazy.force pipeline in
  (match Analysis.Latency.delay_summary p.truth with
  | None -> Alcotest.fail "tiny scenario delivers packets"
  | Some s ->
      Alcotest.(check bool) "positive delays" true (s.min >= 0.);
      Alcotest.(check bool) "bounded by the run" true (s.max < 2000.));
  let by_hops = Analysis.Latency.delay_by_hops p.truth in
  Alcotest.(check bool) "some hop groups" true (List.length by_hops >= 2);
  (* Delay grows with hop count (compare the extremes). *)
  (match (by_hops, List.rev by_hops) with
  | (h1, s1) :: _, (h2, s2) :: _ when h2 > h1 ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone-ish: %d hops %.2fs <= %d hops %.2fs" h1
           s1.mean h2 s2.mean)
        true
        (s1.mean <= s2.mean)
  | _ -> ());
  let hist = Analysis.Latency.hop_histogram_of_flows p.flows in
  let counted = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "histogram covers flows" (List.length p.flows) counted;
  Alcotest.(check bool) "retransmission factor >= 1" true
    (Analysis.Latency.retransmission_factor p.scenario.network >= 1.)

let report_builds () =
  let p = Lazy.force pipeline in
  let r = Analysis.Report.build p in
  Alcotest.(check int) "packets" (Logsys.Truth.count p.truth) r.packets;
  Alcotest.(check bool) "delivery rate sane" true
    (r.delivery_rate > 0. && r.delivery_rate <= 1.);
  Alcotest.(check int) "daily array" p.scenario.params.days
    (Array.length r.daily_losses);
  let text = Analysis.Report.to_string r in
  Alcotest.(check bool) "nonempty text" true (String.length text > 200)

(* -- Figures ----------------------------------------------------------------------- *)

let figures_render () =
  let p = Lazy.force pipeline in
  let nonempty name s =
    Alcotest.(check bool) (name ^ " nonempty") true (String.length s > 100)
  in
  nonempty "table2" (Analysis.Figures.table2 ());
  nonempty "fig4" (Analysis.Figures.fig4 p);
  nonempty "fig5" (Analysis.Figures.fig5 p);
  nonempty "fig6" (Analysis.Figures.fig6 p);
  nonempty "fig8" (Analysis.Figures.fig8 p);
  nonempty "fig9" (Analysis.Figures.fig9 p)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let table2_text_matches_paper () =
  let s = Analysis.Figures.table2 () in
  (* The §IV.C case-1 reconstruction appears verbatim. *)
  Alcotest.(check bool) "case 1 flow" true
    (contains s "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv");
  Alcotest.(check bool) "case 2 flow" true
    (contains s "1-2 trans, [1-2 recv], 1-2 ack")

let csv_exports () =
  let p = Lazy.force pipeline in
  let check_csv name csv min_cols =
    let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
    Alcotest.(check bool) (name ^ " has header+rows") true (List.length lines >= 1);
    List.iter
      (fun line ->
        Alcotest.(check bool)
          (name ^ " column count")
          true
          (List.length (String.split_on_char ',' line) >= min_cols))
      lines
  in
  check_csv "fig4" (Analysis.Export.fig4_csv p) 3;
  check_csv "fig5" (Analysis.Export.fig5_csv p) 3;
  check_csv "fig6" (Analysis.Export.fig6_csv p) 4;
  check_csv "fig8" (Analysis.Export.fig8_csv p) 4;
  check_csv "fig9" (Analysis.Export.fig9_csv p) 4;
  (* fig6 has one data row per day. *)
  let fig6_lines =
    String.split_on_char '\n' (Analysis.Export.fig6_csv p)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "fig6 rows" (p.scenario.params.days + 1)
    (List.length fig6_lines);
  (* write_all creates the files. *)
  let dir = Filename.temp_file "refill" "" in
  Sys.remove dir;
  let written = Analysis.Export.write_all p ~dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove written;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "five files" 5 (List.length written);
      List.iter
        (fun path ->
          Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path))
        written)

let distinct_markers () =
  let markers = List.map Analysis.Figures.cause_marker Logsys.Cause.all in
  Alcotest.(check int) "all distinct" (List.length markers)
    (List.length (List.sort_uniq Char.compare markers))

let () =
  Alcotest.run "analysis"
    [
      ( "metrics",
        [
          Alcotest.test_case "confusion" `Quick confusion_counts;
          Alcotest.test_case "position accuracy" `Quick position_accuracy_counts;
          Alcotest.test_case "flow quality lossless" `Quick
            flow_quality_perfect_on_lossless;
          Alcotest.test_case "path quality lossless" `Quick
            path_quality_lossless;
          Alcotest.test_case "path quality acked extension" `Quick
            path_quality_counts_acked_extension;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "verdicts complete" `Quick pipeline_verdicts_complete;
          Alcotest.test_case "loss times" `Quick pipeline_loss_times_cover_missing;
          Alcotest.test_case "server refinement" `Quick pipeline_refinement;
          Alcotest.test_case "accessors" `Quick pipeline_accessors;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "temporal views" `Quick temporal_views;
          Alcotest.test_case "concentration" `Quick temporal_concentration;
          Alcotest.test_case "spatial" `Quick spatial_counts;
          Alcotest.test_case "composition" `Quick composition_rows;
          Alcotest.test_case "breakdown" `Quick breakdown_shares;
          Alcotest.test_case "paper reference" `Quick breakdown_paper_reference;
        ] );
      ( "latency",
        [ Alcotest.test_case "delay and hops" `Quick latency_analytics ] );
      ("report", [ Alcotest.test_case "builds" `Quick report_builds ]);
      ( "figures",
        [
          Alcotest.test_case "render" `Quick figures_render;
          Alcotest.test_case "table2 text" `Quick table2_text_matches_paper;
          Alcotest.test_case "csv exports" `Quick csv_exports;
          Alcotest.test_case "markers distinct" `Quick distinct_markers;
        ] );
    ]
