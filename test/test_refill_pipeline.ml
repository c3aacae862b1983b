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
    Refill.Reconstruct.packet
      (Logsys.Collected.packets (collected ()))
      ~origin:9999 ~seq:0 ~sink:(sink ())
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

(* The order the kernel's packer hands a packet's records to the engine,
   restated over records: the same-node runs (in node-scan order) merged
   along forwarding chains — from the origin's run, each run's next hop
   being the first non-negative peer of its trans/ack/timeout records, at
   most 256 runs a chain — and then a chain from every run no chain took.
   Within a chain, a run's records through its last trans come before the
   previous run's records after its last trans. *)
let chain_order (records : Logsys.Record.t array) ~origin =
  let tag (r : Logsys.Record.t) = Logsys.Codec.tag_of_kind r.kind in
  let runs =
    Array.fold_left
      (fun acc (r : Logsys.Record.t) ->
        match acc with
        | (node, rs) :: rest when node = r.node -> (node, r :: rs) :: rest
        | _ -> (r.node, [ r ]) :: acc)
      [] records
    |> List.rev_map (fun (node, rs) -> (node, List.rev rs))
    |> Array.of_list
  in
  let used = Array.make (Array.length runs) false in
  let next_hop rs =
    List.find_map
      (fun r ->
        match Logsys.Codec.peer_of_kind r.Logsys.Record.kind with
        | Some p when tag r >= 4 && p >= 0 -> Some p
        | _ -> None)
      rs
  in
  let find_run node =
    let rec go i =
      if i >= Array.length runs then None
      else if (not used.(i)) && fst runs.(i) = node then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec walk node hops acc =
    match if hops >= 256 then None else find_run node with
    | None -> List.rev acc
    | Some i -> (
        used.(i) <- true;
        match next_hop (snd runs.(i)) with
        | Some next when next <> node -> walk next (hops + 1) (i :: acc)
        | _ -> List.rev (i :: acc))
  in
  let chain start =
    let out, post =
      List.fold_left
        (fun (out, post) i ->
          let rs = snd runs.(i) in
          let trans =
            List.concat (List.mapi (fun k r -> if tag r = 4 then [ k ] else []) rs)
          in
          match trans with
          | [] -> (out @ rs @ post, [])
          | ft :: _ ->
              let lt = List.fold_left max ft trans in
              let head = List.filteri (fun k _ -> k < ft) rs
              and mid = List.filteri (fun k _ -> k >= ft && k <= lt) rs
              and tail = List.filteri (fun k _ -> k > lt) rs in
              (out @ head @ post @ mid, tail))
        ([], []) (walk start 0 [])
    in
    out @ post
  in
  let first = chain origin in
  let rest =
    List.concat
      (List.init (Array.length runs) (fun i ->
           if used.(i) then [] else chain (fst runs.(i))))
  in
  first @ rest

(* The items the engine emits for one packet's records, fed as
   [Engine.Events] in [chain_order] with a config of its own, which takes
   an inferred event's peer from the first record (in node-scan order)
   that names it: an oracle independent of the kernel's packer, peer scan,
   interned payloads and per-domain scratch.  Payloads are peers, as in
   the kernel. *)
let engine_items (records : Logsys.Record.t array) ~origin ~sink =
  let module P = Refill.Protocol in
  let tag (r : Logsys.Record.t) = Logsys.Codec.tag_of_kind r.kind in
  let peer (r : Logsys.Record.t) =
    Option.value (Logsys.Codec.peer_of_kind r.kind) ~default:0
  in
  let find f = Array.find_map f records in
  let sender_side r = tag r >= 4 && tag r <= 6 in
  let infer_peer node : P.label -> int option = function
    | L_gen | L_deliver -> Some 0
    | L_recv | L_dup | L_overflow ->
        find (fun r ->
            if sender_side r && peer r = node then Some r.node else None)
    | L_trans | L_ack | L_timeout -> (
        match
          find (fun r ->
              if sender_side r && r.node = node then Some (peer r) else None)
        with
        | Some _ as own -> own
        | None ->
            find (fun r ->
                if tag r >= 1 && tag r <= 3 && peer r = node then Some r.node
                else None))
  in
  let config : (P.label, int) Refill.Engine.config =
    {
      fsm_of = (fun node -> P.fsm_of_role (P.role_of ~origin ~sink node));
      prerequisites = P.prerequisites;
      infer_payload =
        (fun ~node ~label ->
          Some (Option.value (infer_peer node label) ~default:P.unknown_node));
    }
  in
  let acc = ref [] in
  ignore
    (Refill.Engine.process config
       (Refill.Engine.Events
          (Array.of_list
             (List.map
                (fun (r : Logsys.Record.t) ->
                  (r.node, P.label_of_tag (tag r), Some (peer r)))
                (chain_order records ~origin))))
       ~emit:(fun ~node ~label ~payload ~inferred ~entered ->
         acc := { Refill.Engine.node; label; payload; inferred; entered } :: !acc)
      : Refill.Engine.stats);
  Array.of_list (List.rev !acc)

(* A batch flow's arrays are exactly the engine's items, and each logged
   item's payload is [Record.equal] to the snapshot record its row holds,
   on the item's node, of its label's kind, naming its peer.  A stream
   flow (unbounded watermark, two shards) equals the batch flow on node,
   label, inferred flag, entered state and peer: only its payloads'
   ground-truth times differ, since it keeps no arena. *)
let items_view_is_exact () =
  List.iter
    (fun (p, seed) ->
      let c = lossy p seed in
      let sink = sink () in
      let packets = Logsys.Collected.packets c in
      let stream_flows = Hashtbl.create 1024 in
      let st =
        Refill.Stream.create
          ~config:
            { Refill.Config.default with watermark = max_int / 2; shards = 2 }
          ~sink
          ~emit:(fun e ->
            Hashtbl.replace stream_flows (Refill.Flow.packet_key e.flow) e.flow)
          ()
      in
      Refill.Stream.feed st (Logsys.Collected.merged_by_time c);
      ignore (Refill.Stream.finish st : Refill.Stream.summary);
      let flows = reconstruct_flows c ~sink in
      Alcotest.(check int) "every packet streamed" (List.length flows)
        (Hashtbl.length stream_flows);
      List.iter
        (fun (f : Refill.Flow.t) ->
          let fail what k =
            Alcotest.failf "loss %.1f: flow (%d, %d) item %d: %s" p f.origin
              f.seq k what
          in
          let rows =
            Logsys.Arena.Packets.packet_rows packets ~origin:f.origin
              ~seq:f.seq
          and records =
            Logsys.Collected.packet_records c ~origin:f.origin ~seq:f.seq
          in
          let expected = engine_items records ~origin:f.origin ~sink in
          if Array.length expected <> Refill.Flow.length f then
            fail "length differs from the engine's" 0;
          Array.iteri
            (fun k (it : (Refill.Protocol.label, int) Refill.Engine.item) ->
              if
                not
                  (it.node = Refill.Flow.node f k
                  && it.label = Refill.Flow.label f k
                  && it.inferred = Refill.Flow.inferred f k
                  && it.entered = Refill.Flow.entered f k
                  && Option.value it.payload ~default:0 = f.peers.(k))
              then fail "differs from the engine's item" k)
            expected;
          List.iteri
            (fun k (it : Refill.Flow.item) ->
              if not it.inferred then
                match
                  ( it.payload,
                    Array.find_index (Int.equal (Refill.Flow.row f k)) rows )
                with
                | Some r, Some i ->
                    let record = records.(i) in
                    if
                      not
                        (Logsys.Record.equal r record
                        && record.node = it.node
                        && Logsys.Codec.tag_of_kind record.kind
                           = Refill.Protocol.tag_of_label it.label
                        && Logsys.Record.peer record = Refill.Flow.peer f k)
                    then fail "payload is not its row's record" k
                | _ -> fail "logged item without a row of its packet" k)
            (Refill.Flow.items f);
          let g = Hashtbl.find stream_flows (f.origin, f.seq) in
          if Refill.Flow.length g <> Refill.Flow.length f then
            fail "stream length differs" 0;
          for k = 0 to Refill.Flow.length f - 1 do
            if
              not
                (Refill.Flow.node g k = Refill.Flow.node f k
                && Refill.Flow.label g k = Refill.Flow.label f k
                && Refill.Flow.inferred g k = Refill.Flow.inferred f k
                && Refill.Flow.entered g k = Refill.Flow.entered f k
                && Refill.Flow.peer g k = Refill.Flow.peer f k)
            then fail "stream item differs from batch" k
          done)
        flows)
    [ (0., 1L); (0.3, 5L); (0.6, 9L) ]

(* Every packet goes through one function: [packet] on an index gives the
   flow [run_arena] emits for it, columns, rows, provenance and arena
   alike, and [of_records] over the packet's records gives the same
   columns over an index of its own. *)
let one_path_per_packet () =
  List.iter
    (fun (p, seed) ->
      let c = lossy p seed in
      let sink = sink () in
      let packets = Logsys.Collected.packets c in
      let config =
        { Refill.Config.default with jobs = Some 1; provenance = true }
      in
      let same_columns what (a : Refill.Flow.t) (b : Refill.Flow.t) =
        if
          not
            (a.nodes = b.nodes && a.codes = b.codes && a.peers = b.peers
            && a.prov = b.prov && a.stats = b.stats)
        then
          Alcotest.failf "loss %.1f: %s of (%d, %d) differs" p what a.origin
            a.seq
      in
      Refill.Reconstruct.run_arena ~config packets ~sink ~emit:(fun f ->
          let g =
            Refill.Reconstruct.packet ~provenance:true packets
              ~origin:f.origin ~seq:f.seq ~sink
          in
          same_columns "packet" f g;
          let same_arena =
            match (f.arena, g.arena) with
            | Some a, Some b -> a == b
            | _ -> false
          in
          if not (f.rows = g.rows && same_arena) then
            Alcotest.failf "packet (%d, %d): rows or arena differ" f.origin
              f.seq;
          same_columns "of_records" f
            (Refill.Reconstruct.of_records ~provenance:true
               (Logsys.Collected.packet_records c ~origin:f.origin ~seq:f.seq)
               ~origin:f.origin ~seq:f.seq ~sink)))
    [ (0., 1L); (0.3, 5L) ]

(* Batch reconstruction allocates only the arrays its flows keep: a
   serial [run_arena] over the tiny scenario allocates at most 35 minor
   words per row (about 11 now).  Builds that packed each packet into
   twelve fresh arrays, boxed every row's peer, indexed inferred peers in
   three hash tables and made instances and pending lists per packet
   allocated 85. *)
let run_arena_allocation_per_row () =
  let packets = Logsys.Collected.packets (collected ()) in
  let rows = Logsys.Arena.length (Logsys.Arena.Packets.arena packets) in
  let run () =
    Refill.Reconstruct.run_arena
      ~config:{ Refill.Config.default with jobs = Some 1 }
      packets ~sink:(sink ()) ~emit:ignore
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_row = (Gc.minor_words () -. before) /. float_of_int rows in
  if per_row > 35. then
    Alcotest.failf "%.1f minor words per row (%d rows)" per_row rows

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

(* -- Per-domain state ------------------------------------------------------ *)

(* The kernel's scratch, the engine's pool and the builder are reused by
   every packet a domain reconstructs.  Nothing of one packet may reach
   another's flow. *)

let same_flow (a : Refill.Flow.t) (b : Refill.Flow.t) =
  a.nodes = b.nodes && a.codes = b.codes && a.peers = b.peers
  && a.rows = b.rows && a.prov = b.prov && a.stats = b.stats

(* A packet as the first thing a fresh domain reconstructs. *)
let on_fresh_domain packets ~origin ~seq ~sink =
  Domain.join
    (Domain.spawn (fun () ->
         Refill.Reconstruct.packet ~provenance:true packets ~origin ~seq ~sink))

(* A packet with no rows, first on its domain, finds scratch sized for
   it: a key the index does not hold, and no records at all. *)
let missing_packet_first_on_domain () =
  let packets = Logsys.Collected.packets (collected ()) and sink = sink () in
  Alcotest.(check int) "missing key" 0
    (Refill.Flow.length (on_fresh_domain packets ~origin:9999 ~seq:0 ~sink));
  Alcotest.(check int) "no records" 0
    (Refill.Flow.length
       (Domain.join
          (Domain.spawn (fun () ->
               Refill.Reconstruct.of_records [||] ~origin:0 ~seq:0 ~sink))))

let flow_copy (f : Refill.Flow.t) =
  (Array.copy f.nodes, Array.copy f.codes, Array.copy f.peers,
   Array.copy f.rows, Array.copy f.prov, f.stats)

let kept_arrays what (f : Refill.Flow.t) (nodes, codes, peers, rows, prov, stats)
    =
  if
    not
      (f.nodes = nodes && f.codes = codes && f.peers = peers && f.rows = rows
     && f.prov = prov && f.stats = stats)
  then Alcotest.failf "%s: flow (%d, %d) changed" what f.origin f.seq

(* Every packet of a lossy tiny scenario, in random order on this domain
   (which has run every earlier test), equals the same packet
   reconstructed first on a fresh domain: two domains at most. *)
let pooled_state_never_leaks =
  QCheck.Test.make
    ~name:"a packet's flow does not depend on what its domain ran before"
    ~count:4
    QCheck.(pair (int_range 0 70) (int_range 0 1000))
    (fun (loss, seed) ->
      let c = lossy (float_of_int loss /. 100.) (Int64.of_int seed) in
      let sink = sink () in
      let packets = Logsys.Collected.packets c in
      let keys = Array.of_list (Logsys.Arena.Packets.keys packets) in
      let rng = Random.State.make [| seed |] in
      for i = Array.length keys - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let k = keys.(i) in
        keys.(i) <- keys.(j);
        keys.(j) <- k
      done;
      Array.for_all
        (fun (origin, seq) ->
          same_flow
            (Refill.Reconstruct.packet ~provenance:true packets ~origin ~seq
               ~sink)
            (on_fresh_domain packets ~origin ~seq ~sink))
        keys)

(* A dissemination round runs the engine on the same domain with other
   FSMs (five and four states) and record payloads: it changes neither the
   REFILL flow before it nor the one after it. *)
let dissem_between_packets () =
  let c = lossy 0.3 5L and sink = sink () in
  let packets = Logsys.Collected.packets c in
  match Logsys.Arena.Packets.keys packets with
  | (o1, s1) :: (o2, s2) :: _ ->
      let first =
        Refill.Reconstruct.packet ~provenance:true packets ~origin:o1 ~seq:s1
          ~sink
      in
      let kept = flow_copy first in
      let rng = Prelude.Rng.create ~seed:3L in
      let round =
        Refill.Dissem.generate rng ~broadcaster:0 ~receivers:[ 1; 2; 3; 4 ]
          ~message_loss:0.3 ~record_loss:0.3
      in
      ignore
        (Refill.Dissem.analyze_round ~broadcaster:0 ~events:round.events
          : (int * Refill.Fsm_state.t) list);
      let second =
        Refill.Reconstruct.packet ~provenance:true packets ~origin:o2 ~seq:s2
          ~sink
      in
      kept_arrays "the packet before the round" first kept;
      if not (same_flow second (on_fresh_domain packets ~origin:o2 ~seq:s2 ~sink))
      then Alcotest.fail "the packet after the round differs"
  | _ -> Alcotest.fail "fewer than two packets"

(* A flow's arrays are its own: reconstructing every other packet of the
   scenario, batch and stream, on the same domain leaves them as they
   were. *)
let flow_keeps_its_arrays () =
  let c = lossy 0.3 5L and sink = sink () in
  let packets = Logsys.Collected.packets c in
  let origin, seq = List.hd (Logsys.Arena.Packets.keys packets) in
  let flow =
    Refill.Reconstruct.packet ~provenance:true packets ~origin ~seq ~sink
  in
  let kept = flow_copy flow in
  ignore (reconstruct_flows ~jobs:1 c ~sink : Refill.Flow.t list);
  let st =
    Refill.Stream.create
      ~config:{ Refill.Config.default with watermark = 50; provenance = true }
      ~sink ~emit:ignore ()
  in
  Refill.Stream.feed st (Logsys.Collected.merged_by_time c);
  ignore (Refill.Stream.finish st : Refill.Stream.summary);
  kept_arrays "after later packets" flow kept

(* An engine run that raises mid-packet, inside a prerequisite drive,
   leaves its pool half-way: visited and driving flags set, a drive depth,
   consumed events, side-car entries.  The next packet's flow is the one a
   fresh domain makes. *)
exception Mid_packet

let raising_run_leaves_no_trace () =
  let c = lossy 0.5 9L and sink = sink () in
  let packets = Logsys.Collected.packets c in
  let raised = ref 0 in
  List.iter
    (fun (origin, seq) ->
      let records = Logsys.Collected.packet_records c ~origin ~seq in
      let module P = Refill.Protocol in
      let config : (P.label, int) Refill.Engine.config =
        {
          fsm_of = (fun node -> P.fsm_of_role (P.role_of ~origin ~sink node));
          prerequisites = P.prerequisites;
          infer_payload = (fun ~node:_ ~label:_ -> raise Mid_packet);
        }
      in
      let events =
        Array.map
          (fun (r : Logsys.Record.t) ->
            ( r.node,
              P.label_of_tag (Logsys.Codec.tag_of_kind r.kind),
              Some (Option.value (Logsys.Record.peer r) ~default:0) ))
          records
      in
      (match
         Refill.Engine.process config (Refill.Engine.Events events)
           ~prov_out:(fun _ _ -> ())
           ~src_out:(fun _ _ -> ())
           ~emit:(fun ~node:_ ~label:_ ~payload:_ ~inferred:_ ~entered:_ -> ())
       with
      | _ -> ()
      | exception Mid_packet -> incr raised);
      let flow =
        Refill.Reconstruct.packet ~provenance:true packets ~origin ~seq ~sink
      in
      if not (same_flow flow (on_fresh_domain packets ~origin ~seq ~sink)) then
        Alcotest.failf "packet (%d, %d) after a raising run differs" origin seq)
    (List.filteri (fun i _ -> i < 40) (Logsys.Arena.Packets.keys packets));
  if !raised = 0 then Alcotest.fail "no run raised"

(* Alcotest pads every line to the longest group name and cuts it at 80
   columns, so a group name longer than "bookkeeping" would shorten the
   printed names of the tests in every group. *)
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
          Alcotest.test_case "one path per packet" `Quick one_path_per_packet;
          Alcotest.test_case "run_arena allocation per row" `Quick
            run_arena_allocation_per_row;
        ] );
      ( "par",
        [
          Alcotest.test_case "worker exception propagates" `Quick
            par_map_array_exception;
        ] );
      ( "per-domain",
        [
          QCheck_alcotest.to_alcotest pooled_state_never_leaks;
          Alcotest.test_case "a missing packet first on its domain" `Quick
            missing_packet_first_on_domain;
          Alcotest.test_case "a dissemination round between packets" `Quick
            dissem_between_packets;
          Alcotest.test_case "a flow keeps its arrays" `Quick
            flow_keeps_its_arrays;
          Alcotest.test_case "a raising run leaves no trace" `Quick
            raising_run_leaves_no_trace;
        ] );
    ]
