type t = {
  packets : int;
  delivery_rate : float;
  retransmission_factor : float;
  delay : Prelude.Stats.summary option;
  distinct_sources : int;
  distinct_positions : int;
  top3_position_share : float;
  sink_received_share : float;
  breakdown : Breakdown.t;
  daily_losses : int array;
}

let build (pipeline : Pipeline.t) =
  let packets = Logsys.Truth.count pipeline.truth in
  let sources = Temporal.source_view pipeline in
  let positions = Temporal.position_view pipeline in
  let received = Spatial.received_losses pipeline in
  {
    packets;
    delivery_rate =
      Prelude.Stats.ratio (List.length pipeline.delivered_db) packets;
    retransmission_factor =
      Latency.retransmission_factor pipeline.scenario.network;
    delay = Latency.delay_summary pipeline.truth;
    distinct_sources = Temporal.distinct_nodes sources;
    distinct_positions = Temporal.distinct_nodes positions;
    top3_position_share = Temporal.node_concentration positions ~top:3;
    sink_received_share =
      Spatial.sink_share received ~sink:pipeline.scenario.sink;
    breakdown = Breakdown.of_pipeline pipeline;
    daily_losses = Composition.losses_per_day pipeline;
  }

let to_string t =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "== REFILL diagnosis report ==";
  p "packets %d, delivered to server %.1f%%, mean MAC attempts/exchange %.2f"
    t.packets (100. *. t.delivery_rate) t.retransmission_factor;
  (match t.delay with
  | Some d ->
      p "delivery delay: mean %.2fs, p50 %.2fs, p95 %.2fs, max %.2fs" d.mean
        d.p50 d.p95 d.max
  | None -> p "delivery delay: (nothing delivered)");
  p "losses originate at %d nodes but DIE at %d positions; top-3 positions \
     hold %.0f%% of losses"
    t.distinct_sources t.distinct_positions
    (100. *. t.top3_position_share);
  p "the sink holds %.0f%% of received losses"
    (100. *. t.sink_received_share);
  p "cause breakdown (of %d lost packets):" t.breakdown.total_losses;
  List.iter
    (fun (name, pct) ->
      if pct > 0.05 then p "  %-18s %5.1f%%" name pct)
    (Breakdown.rows t.breakdown);
  p "daily losses: %s"
    (Prelude.Ascii_chart.sparkline (Array.map float_of_int t.daily_losses));
  Buffer.contents buf
