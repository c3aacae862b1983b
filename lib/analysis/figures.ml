let cause_marker : Logsys.Cause.t -> char = function
  | Delivered -> '.'
  | Timeout_loss -> 't'
  | Duplicate_loss -> 'd'
  | Overflow_loss -> 'o'
  | Received_loss -> 'r'
  | Acked_loss -> 'a'
  | Server_outage_loss -> 's'
  | Unknown -> '?'

(* -- Table II ------------------------------------------------------------ *)

let table2_record node kind : Logsys.Record.t =
  { node; kind; origin = 1; pkt_seq = 0; true_time = 0.; gseq = 0 }

let table2_cases : (string * Logsys.Record.t list) list =
  let r = table2_record in
  [
    ( "case 1 (node 2's log lost)",
      [ r 1 (Trans { to_ = 2 }); r 3 (Recv { from = 2 }) ] );
    ( "case 2 (only node 1's log)",
      [ r 1 (Trans { to_ = 2 }); r 1 (Ack_recvd { to_ = 2 }) ] );
    ( "case 3 (ack precedes trans)",
      [ r 1 (Ack_recvd { to_ = 2 }); r 1 (Trans { to_ = 2 }) ] );
    ( "case 4 (complete logs, routing loop)",
      [
        r 1 (Trans { to_ = 2 });
        r 1 (Ack_recvd { to_ = 2 });
        r 1 (Recv { from = 3 });
        r 1 (Trans { to_ = 2 });
        r 1 (Ack_recvd { to_ = 2 });
        r 2 (Recv { from = 1 });
        r 2 (Trans { to_ = 3 });
        r 2 (Ack_recvd { to_ = 3 });
        r 2 (Trans { to_ = 3 });
        r 3 (Recv { from = 2 });
        r 3 (Trans { to_ = 1 });
        r 3 (Ack_recvd { to_ = 1 });
      ] );
  ]

let run_table2_case records =
  Refill.Reconstruct.of_records (Array.of_list records) ~origin:1 ~seq:0
    ~sink:99

let table2 () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "== Table II / §IV.C: reconstructed event flows ==\n";
  List.iter
    (fun (name, records) ->
      let flow = run_table2_case records in
      let v = Refill.Classify.classify flow in
      Buffer.add_string buf (Printf.sprintf "%s\n" name);
      Buffer.add_string buf
        (Printf.sprintf "  input : %s\n"
           (String.concat ", " (List.map Logsys.Record.to_string records)));
      Buffer.add_string buf
        (Printf.sprintf "  flow  : %s\n" (Refill.Flow.to_string flow));
      Buffer.add_string buf
        (Printf.sprintf "  verdict: %s%s\n" (Logsys.Cause.name v.cause)
           (match v.loss_node with
           | Some n -> Printf.sprintf " at node %d" n
           | None -> "")))
    table2_cases;
  Buffer.contents buf

(* -- Scatter figures ------------------------------------------------------ *)

let scatter_of_points ~title points =
  let series =
    Temporal.by_cause points
    |> List.map (fun (cause, pts) ->
           {
             Prelude.Ascii_chart.label = Logsys.Cause.name cause;
             marker = cause_marker cause;
             points =
               List.map
                 (fun (p : Temporal.point) -> (p.time, float_of_int p.node))
                 pts;
           })
  in
  Prelude.Ascii_chart.scatter ~title ~x_label:"time (s)" ~y_label:"node id"
    series

let fig4 pipeline =
  let points = Temporal.source_view pipeline in
  let chart = scatter_of_points ~title:"Fig. 4: sink view of lost packets (time x SOURCE node)" points in
  Printf.sprintf "%slost packets: %d  distinct source nodes: %d\n" chart
    (List.length points)
    (Temporal.distinct_nodes points)

let fig5 pipeline =
  let src = Temporal.source_view pipeline in
  let pos = Temporal.position_view pipeline in
  let chart =
    scatter_of_points ~title:"Fig. 5: REFILL view of lost packets (time x LOSS POSITION)" pos
  in
  Printf.sprintf
    "%slost packets: %d  distinct loss positions: %d (vs %d distinct \
     sources)\n\
     top-3 position concentration: %.0f%% of losses (sources: %.0f%%)\n"
    chart (List.length pos)
    (Temporal.distinct_nodes pos)
    (Temporal.distinct_nodes src)
    (100. *. Temporal.node_concentration pos ~top:3)
    (100. *. Temporal.node_concentration src ~top:3)

(* -- Fig. 6 ---------------------------------------------------------------- *)

let fig6 pipeline =
  let rows = Composition.per_day pipeline in
  let series_labels =
    List.map Logsys.Cause.name Composition.tracked_causes
  in
  let bars =
    List.map
      (fun (r : Composition.day_row) ->
        ( Printf.sprintf "day %02d (%4d)" r.day r.total_losses,
          List.map snd r.shares ))
      rows
  in
  let chart =
    Prelude.Ascii_chart.stacked_bars
      ~title:"Fig. 6: loss-cause composition per day (bar label = day, loss count)"
      ~series_labels bars
  in
  let counts =
    Array.map float_of_int (Composition.losses_per_day pipeline)
  in
  Printf.sprintf "%sdaily losses: %s\n" chart
    (Prelude.Ascii_chart.sparkline counts)

(* -- Fig. 8 ---------------------------------------------------------------- *)

let magnitude_glyph count max_count =
  if count = 0 then '.'
  else begin
    let glyphs = [| 'o'; 'O'; '@'; '#' |] in
    let idx =
      if max_count <= 1 then 0
      else
        int_of_float
          (float_of_int (Array.length glyphs - 1)
          *. log (float_of_int (count + 1))
          /. log (float_of_int (max_count + 1)))
    in
    glyphs.(max 0 (min (Array.length glyphs - 1) idx))
  end

let fig8 (pipeline : Pipeline.t) =
  let losses = Spatial.received_losses pipeline in
  let sink = pipeline.scenario.sink in
  let max_count =
    List.fold_left (fun acc (l : Spatial.node_losses) -> max acc l.count) 0
      losses
  in
  let width = 56 and height = 22 in
  let xs = List.map (fun (l : Spatial.node_losses) -> fst l.position) losses in
  let ys = List.map (fun (l : Spatial.node_losses) -> snd l.position) losses in
  let x_lo = List.fold_left min infinity xs
  and x_hi = List.fold_left max neg_infinity xs in
  let y_lo = List.fold_left min infinity ys
  and y_hi = List.fold_left max neg_infinity ys in
  let canvas = Array.make_matrix height width ' ' in
  let place (l : Spatial.node_losses) glyph =
    let x, y = l.position in
    let cx =
      int_of_float
        ((x -. x_lo) /. (Float.max 1e-9 (x_hi -. x_lo)) *. float_of_int (width - 1))
    in
    let cy =
      int_of_float
        ((y -. y_lo) /. (Float.max 1e-9 (y_hi -. y_lo)) *. float_of_int (height - 1))
    in
    canvas.(height - 1 - cy).(cx) <- glyph
  in
  List.iter (fun l -> place l (magnitude_glyph l.count max_count)) losses;
  (match List.find_opt (fun (l : Spatial.node_losses) -> l.node = sink) losses with
  | Some l -> place l 'X'
  | None -> ());
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "== Fig. 8: spatial distribution of received losses (X = sink) ==\n";
  Buffer.add_string buf "glyphs: . none, o few, O some, @ many, # most\n";
  Array.iter
    (fun row ->
      Buffer.add_char buf '|';
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_string buf "|\n")
    canvas;
  Buffer.add_string buf
    (Printf.sprintf "sink share of received losses: %.0f%%\n"
       (100. *. Spatial.sink_share losses ~sink));
  let top = Spatial.top_k losses ~k:5 in
  Buffer.add_string buf "top nodes: ";
  List.iter
    (fun (l : Spatial.node_losses) ->
      if l.count > 0 then
        Buffer.add_string buf (Printf.sprintf "n%d:%d " l.node l.count))
    top;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* -- Fig. 9 ---------------------------------------------------------------- *)

let fig9 (pipeline : Pipeline.t) =
  let measured = Breakdown.of_pipeline pipeline in
  let truth = Breakdown.of_truth pipeline.truth ~sink:pipeline.scenario.sink in
  let paper = Breakdown.paper in
  let header = [ "cause"; "paper %"; "truth %"; "REFILL %" ] in
  let rows =
    List.map2
      (fun (name, p) ((_, t), (_, m)) ->
        [
          name;
          Printf.sprintf "%.1f" p;
          Printf.sprintf "%.1f" t;
          Printf.sprintf "%.1f" m;
        ])
      (Breakdown.rows paper)
      (List.combine (Breakdown.rows truth) (Breakdown.rows measured))
  in
  Printf.sprintf
    "== Fig. 9 / §V.C: loss-cause breakdown (shares of lost packets) ==\n%s\
     total losses: truth=%d REFILL-analyzed=%d\n"
    (Prelude.Text_table.render ~header rows)
    truth.total_losses measured.total_losses
