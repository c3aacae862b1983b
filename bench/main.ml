(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Table II, Figs. 4, 5, 6, 8, 9 / §V.C) plus the extension
   experiments enabled by the simulated substrate (reconstruction accuracy
   vs. log loss, baseline comparison), and — under `perf` — bechamel
   microbenchmarks of the reconstruction engine.

   Usage:
     main.exe                 run every experiment
     main.exe table2 fig4 ... run selected experiments
     main.exe perf            run the bechamel microbenchmarks
*)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* List/array wrappers over the sink-parameterized pipeline entry points —
   the experiments below compare and fold flows, so they materialize. *)
let reconstruct_flows ?(use_intra = true) ?(use_inter = true)
    ?(provenance = false) collected ~sink =
  let acc = ref [] in
  Refill.Reconstruct.run
    ~config:{ Refill.Config.default with use_intra; use_inter; provenance }
    collected ~sink
    ~emit:(fun f -> acc := f :: !acc);
  List.rev !acc

let reconstruct_flows_array collected ~sink =
  Array.of_list (reconstruct_flows collected ~sink)

let merge_flows collected ~flows =
  let acc = ref [] in
  let stats =
    Refill.Global_flow.merge collected ~flows:(Array.of_list flows)
      ~emit:(fun { flow; pos } -> acc := Refill.Flow.item flow pos :: !acc)
  in
  (List.rev !acc, stats)

(* Scenario runs are shared across experiments. *)
let two_day_pipeline =
  lazy
    (let t0 = Unix.gettimeofday () in
     let scenario = Scenario.Citysee.run Scenario.Citysee.two_day in
     let p = Analysis.Pipeline.make scenario in
     Printf.printf "[setup] two-day CitySee run: %.1fs, %d packets, %d records\n"
       (Unix.gettimeofday () -. t0)
       (Node.Network.packets_generated scenario.network)
       (Logsys.Collected.total (Scenario.Citysee.collected scenario));
     p)

let month_pipeline =
  lazy
    (let t0 = Unix.gettimeofday () in
     let scenario = Scenario.Citysee.run Scenario.Citysee.default in
     let p = Analysis.Pipeline.make scenario in
     Printf.printf
       "[setup] 30-day CitySee run: %.1fs, %d packets, %d records, %d lost\n"
       (Unix.gettimeofday () -. t0)
       (Node.Network.packets_generated scenario.network)
       (Logsys.Collected.total (Scenario.Citysee.collected scenario))
       (List.length p.loss_times);
     p)

(* -- Table II ------------------------------------------------------------- *)

let run_table2 () =
  section "Table II / §IV.C — event-flow reconstruction on the paper's cases";
  print_string (Analysis.Figures.table2 ());
  print_string
    "paper: case1 flow = 1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv\n\
     paper: case2 flow = 1-2 trans, [1-2 recv], 1-2 ack recvd (lost after \
     reaching node 2)\n\
     paper: case3 flow = [1-2 trans], [1-2 recv], 1-2 ack, 1-2 trans (lost \
     1→2 in the air)\n\
     paper: case4 = loop revealed; packet lost at node 2 transmitting to \
     node 3\n"

(* -- Fig. 4 ----------------------------------------------------------------- *)

let run_fig4 () =
  let p = Lazy.force two_day_pipeline in
  section "Fig. 4 — sink view: lost packets by source node over two days";
  print_string (Analysis.Figures.fig4 p);
  let src = Analysis.Temporal.source_view p in
  Printf.printf
    "paper: sources of lost packets are spread over essentially ALL nodes\n\
     measured: %d of %d nodes appear as sources of lost packets\n"
    (Analysis.Temporal.distinct_nodes src)
    p.scenario.params.n_nodes

(* -- Fig. 5 ----------------------------------------------------------------- *)

let run_fig5 () =
  let p = Lazy.force two_day_pipeline in
  section "Fig. 5 — REFILL view: loss positions and causes over two days";
  print_string (Analysis.Figures.fig5 p);
  let pos = Analysis.Temporal.position_view p in
  let src = Analysis.Temporal.source_view p in
  Printf.printf
    "paper: loss positions concentrate on a small portion of nodes, the \
     sink's band dominates,\n\
    \       and timeout/duplicate losses cluster in time (the ellipses)\n\
     measured: positions on %d nodes vs %d source nodes; top-3 positions \
     hold %.0f%% of losses\n"
    (Analysis.Temporal.distinct_nodes pos)
    (Analysis.Temporal.distinct_nodes src)
    (100. *. Analysis.Temporal.node_concentration pos ~top:3)

(* -- Fig. 6 ----------------------------------------------------------------- *)

let run_fig6 () =
  let p = Lazy.force month_pipeline in
  section "Fig. 6 — loss-cause composition per day over the month";
  print_string (Analysis.Figures.fig6 p);
  let counts = Analysis.Composition.losses_per_day p in
  let snow_mean =
    (float_of_int counts.(9) +. float_of_int counts.(10)) /. 2.
  in
  (* Median of the non-snow days: robust to the occasional server-outage
     day, which legitimately dwarfs everything else. *)
  let clear_median =
    let others =
      Array.to_list counts
      |> List.filteri (fun d _ -> d <> 9 && d <> 10)
      |> List.map float_of_int
    in
    Prelude.Stats.median (Array.of_list others)
  in
  let clear_mean = clear_median in
  let before_fix =
    Array.to_list (Array.sub counts 12 10)
    |> List.map float_of_int |> Array.of_list |> Prelude.Stats.mean
  in
  let after_fix =
    Array.to_list (Array.sub counts 24 6)
    |> List.map float_of_int |> Array.of_list |> Prelude.Stats.mean
  in
  Printf.printf
    "paper: losses spike on the snow days (9-10); after the day-23 sink fix \
     losses drop sharply\n\
     measured: snow-day mean %.0f vs clear-day mean %.0f losses/day \
     (x%.1f); pre-fix (d12-21) %.0f vs post-fix (d24-29) %.0f losses/day \
     (x%.1f)\n"
    snow_mean clear_mean
    (snow_mean /. Float.max 1. clear_mean)
    before_fix after_fix
    (before_fix /. Float.max 1. after_fix)

(* -- Fig. 8 ----------------------------------------------------------------- *)

let run_fig8 () =
  let p = Lazy.force month_pipeline in
  section "Fig. 8 — spatial distribution of received losses";
  print_string (Analysis.Figures.fig8 p);
  let losses = Analysis.Spatial.received_losses p in
  Printf.printf
    "paper: the sink carries by far the largest received-loss circle\n\
     measured: sink holds %.0f%% of received losses\n"
    (100. *. Analysis.Spatial.sink_share losses ~sink:p.scenario.sink)

(* -- Fig. 9 / §V.C ----------------------------------------------------------- *)

let run_fig9 () =
  let p = Lazy.force month_pipeline in
  section "Fig. 9 / §V.C — overall loss-cause breakdown";
  print_string (Analysis.Figures.fig9 p)

(* -- Extension A1: accuracy vs log loss -------------------------------------- *)

let run_accuracy () =
  section
    "A1 — reconstruction accuracy vs log-loss rate (REFILL vs baselines; \
     only possible on the simulated substrate)";
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let truth = Node.Network.truth scenario.network in
  let collected = Scenario.Citysee.collected scenario in
  let gt = Logsys.Logger.ground_truth (Node.Network.logger scenario.network) in
  Printf.printf "%-6s  %-8s  %-8s  %-8s  %-8s  %-8s  %-8s\n" "loss%" "refill"
    "naive" "wit-ok%" "recall" "path%" "inferred";
  List.iter
    (fun p ->
      let rng = Prelude.Rng.create ~seed:4242L in
      let lossy =
        Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng collected
      in
      let flows = reconstruct_flows lossy ~sink:scenario.sink in
      let refill_acc =
        Analysis.Metrics.accuracy
          (Analysis.Metrics.confusion ~truth
             ~verdicts:
               (List.map
                  (fun (f : Refill.Flow.t) ->
                    ( (f.origin, f.seq),
                      (Refill.Classify.classify f).cause ))
                  flows))
      in
      let naive_acc =
        Analysis.Metrics.accuracy
          (Analysis.Metrics.confusion ~truth
             ~verdicts:
               (Baseline.Naive.classify_all lossy ~sink:scenario.sink
               |> List.map (fun (k, (v : Baseline.Naive.verdict)) ->
                      (k, v.cause))))
      in
      let wit =
        Baseline.Wit_merge.mergeable_fraction
          (Baseline.Wit_merge.merge_all lossy ~sink:scenario.sink)
      in
      let quality = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows in
      let paths = Analysis.Metrics.path_quality ~truth ~flows in
      let summary = Refill.Reconstruct.summarize flows in
      Printf.printf "%-6.0f  %-8.3f  %-8.3f  %-8.1f  %-8.3f  %-8.1f  %-8d\n"
        (100. *. p) refill_acc naive_acc (100. *. wit) quality.event_recall
        (100. *. paths.exact) summary.inferred_events)
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.7; 0.9 ];
  (* Path recovery versus PathZip (§VI): PathZip needs per-packet header
     hashes and a-priori topology, and only ever sees DELIVERED packets. *)
  let pz =
    Baseline.Pathzip.recover_delivered
      (Node.Network.topology scenario.network)
      ~truth ~sink:scenario.sink ~max_hops:12 ~budget:200_000
  in
  Printf.printf
    "path recovery vs PathZip: PathZip recovers %d/%d DELIVERED paths \
     (mean %.0f search states, needs in-packet hashes + topology);\n\
     REFILL recovers paths of lost packets too, from logs alone (path%% \
     column above covers ALL packets).\n"
    pz.recovered pz.packets pz.mean_expanded;
  print_string
    "expected shape: REFILL degrades gracefully and dominates the naive \
     walker at every loss rate;\n\
     Wit-style merging collapses quickly because a single missing record \
     removes the common event.\n"

(* -- Extension A3: mechanism ablation ------------------------------------------ *)

let run_ablation () =
  section
    "A3 — ablation: what do intra-node and inter-node transitions each \
     contribute? (design-choice ablation from DESIGN.md)";
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let truth = Node.Network.truth scenario.network in
  let collected = Scenario.Citysee.collected scenario in
  let rng = Prelude.Rng.create ~seed:777L in
  let lossy =
    Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.25) rng collected
  in
  let gt = Logsys.Logger.ground_truth (Node.Network.logger scenario.network) in
  Printf.printf "%-26s  %-9s  %-8s  %-9s  %-9s\n" "configuration" "accuracy"
    "recall" "inferred" "skipped";
  List.iter
    (fun (name, use_intra, use_inter) ->
      let flows =
        reconstruct_flows ~use_intra ~use_inter lossy
          ~sink:scenario.sink
      in
      let acc =
        Analysis.Metrics.accuracy
          (Analysis.Metrics.confusion ~truth
             ~verdicts:
               (List.map
                  (fun (f : Refill.Flow.t) ->
                    ((f.origin, f.seq), (Refill.Classify.classify f).cause))
                  flows))
      in
      let s = Refill.Reconstruct.summarize flows in
      let q = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows in
      Printf.printf "%-26s  %-9.3f  %-8.3f  %-9d  %-9d\n" name acc
        q.event_recall s.inferred_events s.skipped_events)
    [
      ("full REFILL", true, true);
      ("no inter-node transitions", true, false);
      ("no intra-node transitions", false, true);
      ("neither (plain FSM replay)", false, false);
    ];
  print_string
    "expected shape: both mechanisms contribute; dropping either loses \
     accuracy, and the bare FSM\n\
     replay skips every event whose predecessor records were lost.\n"

(* Raw accuracy from WSN logs alone, and accuracy after reconciling with the
   server's database of arrived packets (the paper's §V.C methodology). *)
let scored_accuracies ~truth flows =
  let raw =
    List.map
      (fun (f : Refill.Flow.t) ->
        ((f.origin, f.seq), Refill.Classify.classify f))
      flows
  in
  let delivered_db =
    Logsys.Truth.fold truth ~init:[] ~f:(fun acc key fate ->
        if Logsys.Cause.equal fate.cause Logsys.Cause.Delivered then
          (key, fate.resolved_at) :: acc
        else acc)
  in
  let refined = Analysis.Pipeline.refine_with_server ~delivered_db raw in
  let accuracy verdicts =
    Analysis.Metrics.accuracy
      (Analysis.Metrics.confusion ~truth
         ~verdicts:
           (List.map
              (fun (k, (v : Refill.Classify.verdict)) -> (k, v.cause))
              verdicts))
  in
  (accuracy raw, accuracy refined)

(* -- Extension A4: in-band log collection --------------------------------------- *)

let run_inband () =
  section
    "A4 — in-band log collection (the paper's §V setup): logs ride the \
     same lossy CTP network";
  let params =
    { Scenario.Citysee.two_day with in_band_logs = true; n_nodes = 49 }
  in
  let scenario = Scenario.Citysee.run params in
  let truth = Node.Network.truth scenario.network in
  (match Node.Network.in_band_stats scenario.network with
  | Some (written, spool_dropped, collected) ->
      Printf.printf
        "records written %d, spool-dropped %d, collected at base station %d \
         (yield %.1f%%)\n"
        written spool_dropped collected
        (100. *. float_of_int collected /. float_of_int written)
  | None -> ());
  (* Energy cost of shipping the logs: compare against the identical run
     without the transport. *)
  let mean_duty sc =
    let net = (sc : Scenario.Citysee.t).network in
    let n = Net.Topology.n_nodes (Node.Network.topology net) in
    let duration = sc.params.warmup +. sc.duration +. 600. in
    let sum = ref 0. in
    for i = 0 to n - 1 do
      sum :=
        !sum
        +. Net.Energy.duty_cycle (Node.Network.energy_of net i) ~duration
    done;
    !sum /. float_of_int n
  in
  let baseline =
    Scenario.Citysee.run { params with in_band_logs = false }
  in
  let duty_with = mean_duty scenario and duty_without = mean_duty baseline in
  Printf.printf
    "radio duty cycle: %.2f%% with in-band logs vs %.2f%% without (+%.0f%% \
     energy overhead for full observability)\n"
    (100. *. duty_with) (100. *. duty_without)
    (100. *. ((duty_with /. duty_without) -. 1.));
  let score label collected =
    let flows = reconstruct_flows collected ~sink:scenario.sink in
    let raw_acc, refined_acc = scored_accuracies ~truth flows in
    let gt =
      Logsys.Logger.ground_truth (Node.Network.logger scenario.network)
    in
    let q = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows in
    Printf.printf
      "%-34s  accuracy %.3f (%.3f w/ server DB)  event recall %.3f\n" label
      raw_acc refined_acc q.event_recall
  in
  (match Scenario.Citysee.collected_in_band scenario with
  | Some collected -> score "in-band collected logs" collected
  | None -> ());
  score "lossless out-of-band readout" (Scenario.Citysee.collected scenario);
  let rng = Prelude.Rng.create ~seed:808L in
  score "synthetic default loss model"
    (Logsys.Collected.lossify Logsys.Loss_model.default rng
       (Scenario.Citysee.collected scenario));
  print_string
    "expected shape: in-band losses are structured (relay hotspots and \
     late-run records suffer most),\n\
     so accuracy sits below a lossless readout but the reconstruction \
     remains useful — the paper's\n\
     operating point.\n"

(* -- Extension A5: logging-policy ablation --------------------------------------- *)

let run_logging_policy () =
  section
    "A5 — which log statements matter? (logging-policy study; the paper's \
     'more effective logging' future work)";
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let truth = Node.Network.truth scenario.network in
  let collected = Scenario.Citysee.collected scenario in
  let policies =
    (("all events", Logsys.Logging_policy.all)
    :: List.map
         (fun kind ->
           ("without " ^ kind, Logsys.Logging_policy.without [ kind ]))
         [ "recv"; "ack"; "trans"; "timeout"; "deliver"; "gen" ])
    @ [
        ( "sender-side only (trans/ack/timeout/gen)",
          Logsys.Logging_policy.only [ "trans"; "ack"; "timeout"; "gen" ] );
        ( "receiver-side only (recv/dup/overflow/deliver)",
          Logsys.Logging_policy.only [ "recv"; "dup"; "overflow"; "deliver" ]
        );
      ]
  in
  Printf.printf "%-46s  %-8s  %-9s  %-9s  %-8s\n" "policy" "raw-acc"
    "serverDB" "records" "inferred";
  List.iter
    (fun (label, policy) ->
      let filtered = Logsys.Logging_policy.apply policy collected in
      let flows = reconstruct_flows filtered ~sink:scenario.sink in
      let raw_acc, refined_acc = scored_accuracies ~truth flows in
      let summary = Refill.Reconstruct.summarize flows in
      Printf.printf "%-46s  %-8.3f  %-9.3f  %-9d  %-8d\n" label raw_acc
        refined_acc
        (Logsys.Collected.total filtered)
        summary.inferred_events)
    policies;
  print_string
    "expected shape: any single statement can be dropped cheaply because \
     the other side of each link\n\
     operation implies it (watch the inferred column grow); the deliver \
     statement is special in that the\n\
     server database substitutes for it entirely; dropping a whole SIDE is \
     survivable only for the\n\
     receiver side — sender-side-only logging cannot place losses without \
     the server DB.\n"

(* -- Extension A6: hardware vs software ACKs (§V.D.5's what-if) ----------------- *)

let run_ack_mode () =
  section
    "A6 — §V.D.5 what-if: hardware ACKs (the deployment) vs software ACKs \
     (ACK only after the packet survives to the upper layers)";
  let run mode =
    let params =
      {
        Scenario.Citysee.two_day with
        n_nodes = 49;
        ack_mode = mode;
      }
    in
    let scenario = Scenario.Citysee.run params in
    let truth = Node.Network.truth scenario.network in
    let counts = Logsys.Truth.cause_counts truth in
    let total = Logsys.Truth.count truth in
    let get c = Option.value ~default:0 (List.assoc_opt c counts) in
    let exchanges, attempts = Node.Network.exchange_stats scenario.network in
    let duration = scenario.params.warmup +. scenario.duration +. 600. in
    let n = Net.Topology.n_nodes (Node.Network.topology scenario.network) in
    let duty = ref 0. in
    for i = 0 to n - 1 do
      duty :=
        !duty
        +. Net.Energy.duty_cycle
             (Node.Network.energy_of scenario.network i)
             ~duration
    done;
    (total, get Logsys.Cause.Delivered, get Logsys.Cause.Acked_loss,
     get Logsys.Cause.Received_loss, get Logsys.Cause.Timeout_loss,
     float_of_int attempts /. float_of_int (max 1 exchanges),
     100. *. !duty /. float_of_int n)
  in
  Printf.printf "%-10s  %-8s  %-10s  %-7s  %-9s  %-8s  %-8s  %-6s\n" "ack mode"
    "packets" "delivered" "acked" "received" "timeout" "att/exch" "duty%";
  List.iter
    (fun (name, mode) ->
      let total, delivered, acked, received, timeout, ape, duty = run mode in
      Printf.printf "%-10s  %-8d  %-10d  %-7d  %-9d  %-8d  %-8.2f  %-6.2f\n"
        name total delivered acked received timeout ape duty)
    [ ("hardware", Node.Network.Hardware); ("software", Node.Network.Software) ];
  print_string
    "expected shape: software ACKs eliminate acked losses and convert most \
     sink serial losses into\n\
     successful retransmissions (delivery jumps), at the price of more \
     attempts per exchange — the\n\
     latency/efficiency tradeoff §V.D.5 predicts.\n"

(* -- Extension A7: failure injection (node reboots) ------------------------------ *)

let run_reboots () =
  section
    "A7 — failure injection: node reboots (volatile state loss) vs \
     reconstruction quality";
  Printf.printf "%-10s  %-8s  %-10s  %-9s  %-9s  %-9s\n" "MTBF(s)" "reboots"
    "delivery%" "raw-acc" "serverDB" "recall";
  List.iter
    (fun mtbf ->
      let params =
        {
          Scenario.Citysee.tiny with
          days = 2;
          reboot_mtbf = (if mtbf = 0. then None else Some mtbf);
          in_band_logs = true;
        }
      in
      let scenario = Scenario.Citysee.run params in
      let truth = Node.Network.truth scenario.network in
      let n = Net.Topology.n_nodes (Node.Network.topology scenario.network) in
      let reboots = ref 0 in
      for i = 0 to n - 1 do
        reboots := !reboots + Node.Network.reboots_of scenario.network i
      done;
      let delivered =
        Logsys.Truth.fold truth ~init:0 ~f:(fun acc _ fate ->
            if Logsys.Cause.equal fate.cause Logsys.Cause.Delivered then
              acc + 1
            else acc)
      in
      let collected =
        match Scenario.Citysee.collected_in_band scenario with
        | Some c -> c
        | None -> Scenario.Citysee.collected scenario
      in
      let flows = reconstruct_flows collected ~sink:scenario.sink in
      let raw_acc, refined_acc = scored_accuracies ~truth flows in
      let gt =
        Logsys.Logger.ground_truth (Node.Network.logger scenario.network)
      in
      let q = Analysis.Metrics.flow_quality ~ground_truth:gt ~flows in
      Printf.printf "%-10.0f  %-8d  %-10.1f  %-9.3f  %-9.3f  %-9.3f\n" mtbf
        !reboots
        (100. *. Prelude.Stats.ratio delivered (Logsys.Truth.count truth))
        raw_acc refined_acc q.event_recall)
    [ 0.; 600.; 200.; 60. ];
  print_string
    "expected shape: reboots wipe queues, routing state and unshipped log \
     spools — delivery and raw\n\
     accuracy fall together, while the server-DB-reconciled verdicts stay \
     robust until reboots are\n\
     near-continuous.\n"

(* -- Extension A8: the network-wide event flow (§II Eq. 1) ----------------------- *)

let run_global_flow () =
  section
    "A8 — network-wide event flow: global ordering from unsynchronized \
     logs (§II Eq. 1)";
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let gt = Logsys.Logger.ground_truth (Node.Network.logger scenario.network) in
  let agreement items =
    let pos = Hashtbl.create 4096 in
    List.iteri (fun i (r : Logsys.Record.t) -> Hashtbl.replace pos r.gseq i) gt;
    let seq =
      List.filter_map
        (fun (i : Refill.Flow.item) ->
          if i.inferred then None
          else
            Option.bind i.payload (fun (r : Logsys.Record.t) ->
                Hashtbl.find_opt pos r.gseq))
        items
      |> Array.of_list
    in
    let rng = Prelude.Rng.create ~seed:3L in
    let total = ref 0 and good = ref 0 in
    for _ = 1 to 100_000 do
      let a = Prelude.Rng.int rng (Array.length seq) in
      let b = Prelude.Rng.int rng (Array.length seq) in
      if a < b then begin
        incr total;
        if seq.(a) < seq.(b) then incr good
      end
    done;
    Prelude.Stats.ratio !good !total
  in
  Printf.printf "%-10s  %-8s  %-9s  %-9s  %-9s  %-11s\n" "loss%" "events"
    "logged" "inferred" "relaxed" "agreement";
  List.iter
    (fun p ->
      let rng = Prelude.Rng.create ~seed:99L in
      let collected =
        if p = 0. then Scenario.Citysee.collected scenario
        else
          Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
            (Scenario.Citysee.collected scenario)
      in
      let flows = reconstruct_flows collected ~sink:scenario.sink in
      let items, stats = merge_flows collected ~flows in
      Printf.printf "%-10.0f  %-8d  %-9d  %-9d  %-9d  %-11.3f\n" (100. *. p)
        stats.events stats.logged stats.inferred stats.relaxed
        (agreement items))
    [ 0.0; 0.2; 0.5 ];
  print_string
    "expected shape: with NO timestamps anywhere, the merged global flow \
     orders logged event pairs\n\
     in wall-clock agreement well above 0.9 on complete logs, degrading \
     gently as records vanish.\n"

(* -- Extension A9: full CitySee scale --------------------------------------------- *)

let run_scale () =
  section
    "A9 — full deployment scale: 1225 nodes, CitySee's real 10-minute \
     reporting period";
  let t0 = Unix.gettimeofday () in
  let scenario = Scenario.Citysee.run Scenario.Citysee.full_scale in
  let t1 = Unix.gettimeofday () in
  let truth = Node.Network.truth scenario.network in
  let collected =
    Scenario.Citysee.collected_lossy scenario Logsys.Loss_model.default
  in
  let t2 = Unix.gettimeofday () in
  let flows = reconstruct_flows collected ~sink:scenario.sink in
  let t3 = Unix.gettimeofday () in
  let raw_acc, refined_acc = scored_accuracies ~truth flows in
  Printf.printf
    "simulated %d nodes, %d packets, %d log records in %.1fs (routing \
     converged: %b)\n"
    (Net.Topology.n_nodes (Node.Network.topology scenario.network))
    (Node.Network.packets_generated scenario.network)
    (Logsys.Logger.total (Node.Network.logger scenario.network))
    (t1 -. t0)
    (Node.Network.routing_converged scenario.network);
  Printf.printf
    "reconstructed %d flows from %d surviving records in %.1fs; cause \
     accuracy %.3f raw, %.3f with the server DB\n"
    (List.length flows)
    (Logsys.Collected.total collected)
    (t3 -. t2) raw_acc refined_acc;
  print_string
    "expected shape: the pipeline handles the paper's full 1200-node scale \
     in seconds on one core.\n"

(* -- Extension A10: reconstruction scaling ------------------------------------- *)

(* Events-vs-wall-time ladder for the reconstruction hot path alone: the
   scenario is simulated once (setup, excluded from the measurement), its
   logs lossified with the default model (losses are what exercise the
   inference machinery), then timed through the batch pipeline.  Results are
   persisted into BENCH_refill.json so the perf trajectory accumulates
   across PRs. *)

type scaling_point = {
  rung : string;
  records : int;
  flow_events : int;
  reconstruct_seconds : float;
  global_flow_seconds : float;
  analysis_seconds : float;
  stream_seconds : float;
  stream_shards : int;
  stream_sharded_seconds : float option;
      (* wall time of the same trace through a [shards]-shard stream;
         [None] on single-shard rungs *)
  peak_frontier_events : int;
  gc_minor_collections : int;
  gc_major_words : float;
  peak_heap_words : int;
  decode_seconds : float;
      (* arena bulk decode ({!Logsys.Arena.decode_log_into}) over every
         node's encoded log, best-of interleaved samples *)
  decode_baseline_seconds : float;
      (* the record-path decode ({!Logsys.Codec.decode_log}) over the
         same bytes *)
  decode_speedup : float;
      (* median interleaved ratio baseline/arena — the ingest-throughput
         multiple the flat-column path buys *)
  records_per_second : float;  (* records / decode_seconds *)
  decode_gc_minor_collections : int;  (* one arena pass, warm *)
  decode_baseline_gc_minor_collections : int;  (* one record pass *)
}

let scaling_results : scaling_point list ref = ref []

(* Provenance cost on the default rung: best-of-3 minimum wall time of the
   batch reconstruction with the side-car provenance on vs off.  The ISSUE
   budget is < 10% overhead; CI gates on the persisted ratio. *)
let provenance_overhead : float option ref = ref None

(* Interleaved A/B timing for sub-millisecond workloads.  Timing [f] and
   [g] in adjacent samples cancels machine-level drift (frequency scaling,
   GC pacing, cache state) that makes separate best-of-N runs
   incomparable; alternating which side goes first cancels order bias; and
   the *median* of the per-round ratios shrugs off rounds where the
   scheduler landed on one side.  Each sample times [iters] consecutive
   calls so clock granularity stays far below the measured interval, and
   starts from a freshly-emptied minor heap so allocation pacing is the
   workload's own.  Returns (time_f, time_g, median ratio g/f). *)
let interleaved_ratio ?(rounds = 15) ?(iters = 50) f g =
  let time h =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      h ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let ratios = Array.make rounds 0. in
  let best_f = ref infinity and best_g = ref infinity in
  for round = 0 to rounds - 1 do
    let tf, tg =
      if round land 1 = 0 then begin
        let tf = time f in
        let tg = time g in
        (tf, tg)
      end
      else begin
        let tg = time g in
        let tf = time f in
        (tf, tg)
      end
    in
    best_f := Float.min !best_f tf;
    best_g := Float.min !best_g tg;
    ratios.(round) <- tg /. Float.max 1e-9 tf
  done;
  Array.sort compare ratios;
  (!best_f, !best_g, ratios.(rounds / 2))

let scaling_rung ?(shards = 1) name params =
  let t0 = Unix.gettimeofday () in
  let scenario = Scenario.Citysee.run params in
  let setup = Unix.gettimeofday () -. t0 in
  let collected =
    Scenario.Citysee.collected_lossy scenario Logsys.Loss_model.default
  in
  let records = Logsys.Collected.total collected in
  (* Ingest-throughput probe: every node's log encoded once (excluded from
     the timing), then the record-path decoder raced against the arena bulk
     decoder over the same bytes.  Interleaved sampling (see
     [interleaved_ratio]) keeps the speedup honest on a noisy machine; the
     GC deltas show the point of the column store — the record path
     allocates one block per record, the warm arena path allocates
     nothing. *)
  let n_nodes = Logsys.Collected.n_nodes collected in
  let encoded =
    Array.init n_nodes (fun node ->
        Logsys.Codec.encode_log (Logsys.Collected.node_log collected node))
  in
  let sinkhole = ref 0 in
  let decode_records () =
    for node = 0 to n_nodes - 1 do
      sinkhole :=
        !sinkhole + Array.length (Logsys.Codec.decode_log ~node encoded.(node))
    done
  in
  let arena = Logsys.Arena.create ~capacity:(max 1 records) () in
  let decode_arena () =
    Logsys.Arena.clear arena;
    for node = 0 to n_nodes - 1 do
      sinkhole :=
        !sinkhole + Logsys.Arena.decode_log_into arena ~node encoded.(node)
    done
  in
  decode_arena ();
  (* One measured pass each, after warm-up, for the GC story. *)
  let (), gc_arena = Refill_obs.Profile.measure decode_arena in
  let (), gc_recdec = Refill_obs.Profile.measure decode_records in
  let decode_iters = max 1 (100_000 / max 1 records) in
  let dt_decode, dt_decode_base, decode_speedup =
    interleaved_ratio ~rounds:9 ~iters:decode_iters decode_arena
      decode_records
  in
  ignore !sinkhole;
  let records_per_second = float_of_int records /. Float.max 1e-9 dt_decode in
  let gc0 = Refill_obs.Profile.sample () in
  let t1 = Unix.gettimeofday () in
  let flows = reconstruct_flows_array collected ~sink:scenario.sink in
  let dt_rec = Unix.gettimeofday () -. t1 in
  let t2 = Unix.gettimeofday () in
  let gstats = Refill.Global_flow.merge collected ~flows ~emit:ignore in
  let dt_gf = Unix.gettimeofday () -. t2 in
  let t3 = Unix.gettimeofday () in
  let verdicts = Array.map Refill.Classify.classify flows in
  let dt_an = Unix.gettimeofday () -. t3 in
  let delivered =
    Array.fold_left
      (fun acc (v : Refill.Classify.verdict) ->
        if v.cause = Logsys.Cause.Delivered then acc + 1 else acc)
      0 verdicts
  in
  let flow_events = gstats.Refill.Global_flow.events in
  (* Streaming rung: same trace in arrival order, fed chunk by chunk with
     the watermark at 5% of the trace.  Input prep (the time-ordered merge)
     is excluded from the measurement, like the simulation is. *)
  let ordered = Logsys.Collected.merged_by_time collected in
  let config =
    { Refill.Config.default with watermark = max 1 (records / 20) }
  in
  let t4 = Unix.gettimeofday () in
  let stream_flows = ref 0 in
  let stream =
    Refill.Stream.create ~config ~sink:scenario.sink
      ~emit:(fun _ -> incr stream_flows)
      ()
  in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min config.chunk_events (n - !i) in
    Refill.Stream.feed stream (Array.sub ordered !i len);
    i := !i + len
  done;
  let ssum = Refill.Stream.finish stream in
  let dt_stream = Unix.gettimeofday () -. t4 in
  (* Sharded rung: identical trace through a [shards]-shard stream.
     Output is byte-identical by construction (qcheck-pinned in the test
     suite), so only the wall time and flow count are recorded.  Speedup
     needs one core per shard; on fewer cores each round waits for
     time-sliced workers, an honest slowdown the JSON reports as-is. *)
  let dt_sharded =
    if shards <= 1 then None
    else begin
      let config = { config with shards } in
      let t5 = Unix.gettimeofday () in
      let sharded_flows = ref 0 in
      let st =
        Refill.Stream.create ~config ~sink:scenario.sink
          ~emit:(fun _ -> incr sharded_flows)
          ()
      in
      let i = ref 0 in
      while !i < n do
        let len = min config.chunk_events (n - !i) in
        Refill.Stream.feed st (Array.sub ordered !i len);
        i := !i + len
      done;
      let shsum = Refill.Stream.finish st in
      let dt = Unix.gettimeofday () -. t5 in
      if shsum.flows <> ssum.flows then
        Printf.printf
          "%14sWARNING: sharded flow count %d <> single-domain %d\n" ""
          shsum.flows ssum.flows;
      Some dt
    end
  in
  let gc = Refill_obs.Profile.(delta ~before:gc0 ~after:(sample ())) in
  Printf.printf
    "%-12s  %9d records  %9d flow events  %7d delivered  sim %6.1fs\n\
     %14sreconstruct %8.3fs (%.0f events/s)  global_flow %8.3fs  analysis \
     %8.3fs\n\
     %14sstream      %8.3fs  %d flows  peak frontier %d events (%.1f%% of \
     trace)\n\
     %!"
    name records flow_events delivered setup ""
    dt_rec
    (float_of_int flow_events /. Float.max 1e-9 dt_rec)
    dt_gf dt_an ""
    dt_stream !stream_flows ssum.peak_frontier_events
    (100.
    *. float_of_int ssum.peak_frontier_events
    /. float_of_int (max 1 records));
  (match dt_sharded with
  | Some dt ->
      Printf.printf
        "%14sstream x%-4d %8.3fs  speedup x%.2f (needs %d cores to win)\n" ""
        shards dt
        (dt_stream /. Float.max 1e-9 dt)
        shards
  | None -> ());
  Printf.printf
    "%14sgc          %d minor / %d major collections, %.1fM major words, \
     peak heap %.1fM words\n"
    "" gc.Refill_obs.Profile.minor_collections gc.major_collections
    (gc.major_words /. 1e6)
    (float_of_int gc.top_heap_words /. 1e6);
  Printf.printf
    "%14sdecode      %8.4fs arena (%.2fM records/s) vs %8.4fs records: \
     x%.1f ingest speedup  (gc minor %d vs %d)\n"
    "" dt_decode (records_per_second /. 1e6) dt_decode_base decode_speedup
    gc_arena.Refill_obs.Profile.minor_collections
    gc_recdec.Refill_obs.Profile.minor_collections;
  (* The default (smallest) rung doubles as the provenance-overhead probe:
     re-run the batch reconstruction alone, side-car off vs on. *)
  scaling_results :=
    {
      rung = name;
      records;
      flow_events;
      reconstruct_seconds = dt_rec;
      global_flow_seconds = dt_gf;
      analysis_seconds = dt_an;
      stream_seconds = dt_stream;
      stream_shards = shards;
      stream_sharded_seconds = dt_sharded;
      peak_frontier_events = ssum.peak_frontier_events;
      gc_minor_collections = gc.minor_collections;
      gc_major_words = gc.major_words;
      peak_heap_words = gc.top_heap_words;
      decode_seconds = dt_decode;
      decode_baseline_seconds = dt_decode_base;
      decode_speedup;
      records_per_second;
      decode_gc_minor_collections =
        gc_arena.Refill_obs.Profile.minor_collections;
      decode_baseline_gc_minor_collections =
        gc_recdec.Refill_obs.Profile.minor_collections;
    }
    :: !scaling_results

(* Per-rung shard counts: the tiny rung stays single-domain (the trace is
   too small to amortize worker hand-off), the mid rungs use 4 shards, and
   the 1200-node rung 8 — matching the deployment-scale sink fan-in. *)
let scaling_ladder =
  [
    ("tiny-1d", Scenario.Citysee.tiny, 1);
    ("citysee-2d", Scenario.Citysee.two_day, 4);
    ("citysee-1200", Scenario.Citysee.full_scale, 8);
    ("citysee-30d", Scenario.Citysee.default, 4);
  ]

(* Provenance-on vs provenance-off batch reconstruction, on the two-day
   trace: the tiny rung's packets are so small that the ratio there is
   dominated by GC-phase alignment, not by the side-car (observed swings
   of ±5% between identical runs); at ~87k records one reconstruction is
   ~20ms and the median interleaved ratio is stable to ~1%.  Serial jobs
   keep domain-spawn jitter out of the measurement.  Flows are consumed as
   they are emitted — retaining the whole flow list would measure the
   caller's GC retention, not the side-car. *)
let provenance_probe () =
  let scenario = Scenario.Citysee.run Scenario.Citysee.two_day in
  let collected =
    Scenario.Citysee.collected_lossy scenario Logsys.Loss_model.default
  in
  let consumed = ref 0 in
  let run prov =
    Refill.Reconstruct.run
      ~config:
        { Refill.Config.default with provenance = prov; jobs = Some 1 }
      collected ~sink:scenario.sink
      ~emit:(fun f ->
        consumed := !consumed + f.Refill.Flow.stats.emitted_logged)
  in
  let off, on_, ratio =
    interleaved_ratio ~rounds:11 ~iters:1
      (fun () -> run false)
      (fun () -> run true)
  in
  ignore !consumed;
  provenance_overhead := Some ratio;
  Printf.printf
    "%-12s  provenance-on %.4fs vs off %.4fs: x%.3f overhead (median of 11 \
     interleaved rounds)\n"
    "prov-probe" on_ off ratio

let run_scaling () =
  section
    "A10 — reconstruction scaling: events vs wall time (small → 1200-node \
     CitySee)";
  List.iter
    (fun (name, params, shards) -> scaling_rung ~shards name params)
    scaling_ladder;
  provenance_probe ()

(* The smoke variant runs the smallest rung with 2 shards even though the
   full ladder keeps tiny-1d single-domain: CI gates on the sharded fields
   being present and sane, so the cheap rung has to produce them. *)
let run_scaling_smoke () =
  section "A10 (smoke) — reconstruction scaling, smallest rung only";
  (match scaling_ladder with
  | (name, params, _) :: _ -> scaling_rung ~shards:2 name params
  | [] -> ());
  provenance_probe ()

(* The two-day rung alone: what CI runs to gate the arena ingest speedup
   (the ISSUE's >= 5x target is pinned on this rung, where one decode pass
   is far above clock granularity but the simulation stays affordable). *)
let run_scaling_2d_smoke () =
  section "A10 (2d smoke) — two-day rung only (ingest-speedup gate)";
  scaling_rung ~shards:4 "citysee-2d" Scenario.Citysee.two_day

(* Reduced-duration 1200-node smoke: full_scale's node count and reporting
   structure at half the day length, so CI can exercise the deployment-
   scale rung (and its 8-way sharding) without the full simulation bill. *)
let run_scaling_1200_smoke () =
  section "A10 (1200 smoke) — 1200-node rung, reduced duration";
  scaling_rung ~shards:8 "citysee-1200-smoke"
    {
      Scenario.Citysee.full_scale with
      day_length = 600.;
      data_interval = 300.;
    }

(* -- Server-mode ingestion throughput ----------------------------------------- *)

let serve_records_per_second : float option ref = ref None
let serve_p99_frame_latency : float option ref = ref None

(* The two-day trace pushed through a real `refill serve` over loopback: an
   in-process server (sharded stream, null emit), one lockstep client, so
   every frame pays the full wire cost — encode, TCP, decode into the
   connection arena, feed, ack.  Records/s is end-to-end wall time;
   the p99 is the lockstep ack round-trip, i.e. per-frame ingest latency
   including the reconstruction work that frame triggered. *)
let run_serve_2d_smoke () =
  section "serve (2d smoke) — live ingestion over loopback";
  let scenario = Scenario.Citysee.run Scenario.Citysee.two_day in
  let collected =
    Scenario.Citysee.collected_lossy scenario Logsys.Loss_model.default
  in
  let ordered = Logsys.Collected.merged_by_time collected in
  let config =
    { Refill.Config.default with watermark = 20_000; shards = 2 }
  in
  let srv =
    match
      Refill_serve.Server.start
        {
          Refill_serve.Server.default_config with
          stream = config;
          sink = scenario.sink;
        }
    with
    | Ok s -> s
    | Error e -> failwith (Refill.Error.message e)
  in
  let client =
    Refill_serve.Client.connect ~port:(Refill_serve.Server.port srv) ()
  in
  let chunk = 512 in
  let total = Array.length ordered in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < total do
    let len = min chunk (total - !i) in
    ignore (Refill_serve.Client.send client (Array.sub ordered !i len));
    i := !i + len
  done;
  ignore (Refill_serve.Client.finish client);
  let dt = Unix.gettimeofday () -. t0 in
  let summary = Refill_serve.Server.stop srv in
  let st = Refill_serve.Client.stats client in
  let rps = float_of_int st.records /. Float.max 1e-9 dt in
  serve_records_per_second := Some rps;
  serve_p99_frame_latency := Some st.Refill_serve.Client.rtt_p99;
  Printf.printf
    "served %d records in %d frames over loopback in %.2fs (%.0f records/s)\n"
    st.records st.frames dt rps;
  Printf.printf
    "ack rtt p50 %.6fs p99 %.6fs; %d flows emitted (%d complete)\n"
    st.rtt_p50 st.rtt_p99 summary.Refill.Stream.flows
    summary.Refill.Stream.complete

(* -- Extension A2: bechamel microbenchmarks ----------------------------------- *)

let perf () =
  section "A2 — microbenchmarks (bechamel)";
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let collected = Scenario.Citysee.collected scenario in
  let rng = Prelude.Rng.create ~seed:5L in
  let lossy =
    Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.2) rng collected
  in
  let keys = Logsys.Collected.packet_keys collected in
  let total_records = Logsys.Collected.total collected in
  let open Bechamel in
  let test_reconstruct_lossless =
    Test.make ~name:"reconstruct-all/lossless" (Staged.stage (fun () ->
        ignore (reconstruct_flows collected ~sink:scenario.sink)))
  in
  let test_reconstruct_lossy =
    Test.make ~name:"reconstruct-all/20%-loss" (Staged.stage (fun () ->
        ignore (reconstruct_flows lossy ~sink:scenario.sink)))
  in
  let test_single_packet =
    let origin, seq = List.nth keys (List.length keys / 2) in
    Test.make ~name:"reconstruct-one-packet" (Staged.stage (fun () ->
        ignore
          (Refill.Reconstruct.packet
             (Logsys.Collected.packets collected)
             ~origin ~seq ~sink:scenario.sink)))
  in
  let test_naive =
    Test.make ~name:"baseline-naive/lossless" (Staged.stage (fun () ->
        ignore (Baseline.Naive.classify_all collected ~sink:scenario.sink)))
  in
  let test_loss_model =
    Test.make ~name:"loss-model/default" (Staged.stage (fun () ->
        let rng = Prelude.Rng.create ~seed:6L in
        ignore
          (Logsys.Collected.lossify Logsys.Loss_model.default rng collected)))
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ per_run_ns ] ->
            Printf.printf "  %-28s %12.0f ns/run  (%.2f runs/s)\n" name
              per_run_ns
              (1e9 /. per_run_ns)
        | _ -> Printf.printf "  %-28s (no estimate)\n" name)
      results
  in
  Printf.printf "workload: %d packets, %d records\n" (List.length keys)
    total_records;
  List.iter
    (fun t -> benchmark t)
    [
      test_reconstruct_lossless;
      test_reconstruct_lossy;
      test_single_packet;
      test_naive;
      test_loss_model;
    ]

(* -- Driver -------------------------------------------------------------------- *)

let experiments =
  [
    ("table2", run_table2);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("accuracy", run_accuracy);
    ("ablation", run_ablation);
    ("inband", run_inband);
    ("policy", run_logging_policy);
    ("ackmode", run_ack_mode);
    ("reboots", run_reboots);
    ("globalflow", run_global_flow);
    ("scale", run_scale);
    ("scaling", run_scaling);
    ("scaling-smoke", run_scaling_smoke);
    ("scaling-2d-smoke", run_scaling_2d_smoke);
    ("scaling-1200-smoke", run_scaling_1200_smoke);
    ("serve-2d-smoke", run_serve_2d_smoke);
    ("perf", perf);
  ]

(* Persist the run machine-readably so the perf trajectory accumulates:
   per-experiment wall time plus a full metrics snapshot (event counts,
   inference counters, latency histograms). *)
let rec find_repo_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent

let write_bench_json timings =
  let module J = Refill_obs.Json in
  let root =
    Option.value ~default:(Sys.getcwd ()) (find_repo_root (Sys.getcwd ()))
  in
  let path = Filename.concat root "BENCH_refill.json" in
  let doc =
    J.Obj
      [
        ("schema", J.Str "refill-bench-v1");
        ("unix_time", J.Num (Unix.gettimeofday ()));
        ( "experiments",
          J.Arr
            (List.map
               (fun (name, seconds) ->
                 J.Obj [ ("name", J.Str name); ("seconds", J.Num seconds) ])
               timings) );
        ( "scaling",
          J.Arr
            (List.rev_map
               (fun p ->
                 J.Obj
                   ([
                     ("rung", J.Str p.rung);
                     ("records", J.Num (float_of_int p.records));
                     ("flow_events", J.Num (float_of_int p.flow_events));
                     ("reconstruct_seconds", J.Num p.reconstruct_seconds);
                     ("global_flow_seconds", J.Num p.global_flow_seconds);
                     ("analysis_seconds", J.Num p.analysis_seconds);
                     ("stream_seconds", J.Num p.stream_seconds);
                     ("stream_shards", J.Num (float_of_int p.stream_shards));
                   ]
                   @ (match p.stream_sharded_seconds with
                     | Some dt ->
                         [
                           ("stream_sharded_seconds", J.Num dt);
                           ( "stream_speedup",
                             J.Num (p.stream_seconds /. Float.max 1e-9 dt) );
                         ]
                     | None -> [])
                   @ [
                     ( "peak_frontier_events",
                       J.Num (float_of_int p.peak_frontier_events) );
                     ( "gc_minor_collections",
                       J.Num (float_of_int p.gc_minor_collections) );
                     ("gc_major_words", J.Num p.gc_major_words);
                     ( "peak_heap_words",
                       J.Num (float_of_int p.peak_heap_words) );
                     ("decode_seconds", J.Num p.decode_seconds);
                     ( "decode_baseline_seconds",
                       J.Num p.decode_baseline_seconds );
                     ("decode_speedup", J.Num p.decode_speedup);
                     ("records_per_second", J.Num p.records_per_second);
                     ( "decode_gc_minor_collections",
                       J.Num (float_of_int p.decode_gc_minor_collections) );
                     ( "decode_baseline_gc_minor_collections",
                       J.Num
                         (float_of_int p.decode_baseline_gc_minor_collections)
                     );
                   ]))
               !scaling_results) );
        ("metrics", Refill_obs.Metrics.to_json ());
      ]
  in
  let doc =
    match (!provenance_overhead, doc) with
    | Some r, J.Obj fields ->
        J.Obj (fields @ [ ("provenance_overhead_ratio", J.Num r) ])
    | _ -> doc
  in
  let doc =
    match (!serve_records_per_second, !serve_p99_frame_latency, doc) with
    | Some rps, Some p99, J.Obj fields ->
        J.Obj
          (fields
          @ [
              ("serve_records_per_second", J.Num rps);
              ("serve_p99_frame_latency_seconds", J.Num p99);
            ])
    | _ -> doc
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string doc ^ "\n"));
  Printf.printf "\nwrote %s (%d experiments)\n" path (List.length timings)

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let timings = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          timings := (name, Unix.gettimeofday () -. t0) :: !timings
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  write_bench_json (List.rev !timings)
