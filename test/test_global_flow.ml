(* Tests for the network-wide event flow (§II Eq. 1): the topological merge
   of per-packet flows under per-node log constraints. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

(* List-shaped wrappers over the sink-parameterized entry points: these
   tests predate them and score flows/items as lists. *)
let reconstruct_flows collected ~sink =
  let acc = ref [] in
  Refill.Reconstruct.run collected ~sink ~emit:(fun f -> acc := f :: !acc);
  List.rev !acc

(* The merged sequence as (flow, position) handles, and as items. *)
let merge_events collected ~flows =
  let acc = ref [] in
  let stats =
    Refill.Global_flow.merge collected ~flows:(Array.of_list flows)
      ~emit:(fun ({ flow; pos } : Refill.Global_flow.event) ->
        acc := (flow, pos) :: !acc)
  in
  (List.rev !acc, stats)

let merge_flows collected ~flows =
  let events, stats = merge_events collected ~flows in
  (List.map (fun (f, pos) -> Refill.Flow.item f pos) events, stats)

let build_lossless () =
  let sc = Lazy.force scenario in
  let collected = Scenario.Citysee.collected sc in
  let flows = reconstruct_flows collected ~sink:sc.sink in
  (sc, collected, flows, merge_flows collected ~flows)

let counts_add_up () =
  let _, collected, flows, (items, stats) = build_lossless () in
  Alcotest.(check int) "events = sum of flows"
    (List.fold_left (fun acc (f : Refill.Flow.t) -> acc + Refill.Flow.length f) 0 flows)
    stats.events;
  Alcotest.(check int) "list matches stats" stats.events (List.length items);
  Alcotest.(check int) "logged events = consumed records"
    (Logsys.Collected.total collected)
    (stats.logged + 0);
  Alcotest.(check int) "partition" stats.events (stats.logged + stats.inferred)

let preserves_per_packet_flow_order () =
  let _, _, flows, (items, _) = build_lossless () in
  (* For each packet, the subsequence of its items in the global flow must
     equal its own flow. *)
  let global = Array.of_list items in
  let positions = Hashtbl.create 1024 in
  Array.iteri
    (fun idx (i : Refill.Flow.item) ->
      match i.payload with
      | Some r ->
          let key = Logsys.Record.packet_key r in
          Hashtbl.replace positions key
            (idx :: Option.value ~default:[] (Hashtbl.find_opt positions key))
      | None -> ())
    global;
  List.iter
    (fun (f : Refill.Flow.t) ->
      match Hashtbl.find_opt positions (f.origin, f.seq) with
      | None -> ()
      | Some idxs_rev ->
          let idxs = List.rev idxs_rev in
          let sub = List.map (fun i -> global.(i)) idxs in
          Alcotest.(check int)
            (Printf.sprintf "packet (%d,%d) intact" f.origin f.seq)
            (Refill.Flow.length f) (List.length sub);
          List.iter2
            (fun (a : Refill.Flow.item) (b : Refill.Flow.item) ->
              Alcotest.(check bool) "same order" true
                (a.label = b.label && a.node = b.node && a.inferred = b.inferred))
            (Refill.Flow.items f) sub)
      flows

let wall_clock_agreement_high () =
  let sc, _, _, (items, stats) = build_lossless () in
  Alcotest.(check bool)
    (Printf.sprintf "few relaxations (%d)" stats.relaxed)
    true
    (stats.relaxed < stats.events / 20);
  (* Pairwise order agreement with ground-truth time over logged events. *)
  let gt = Logsys.Logger.ground_truth (Node.Network.logger sc.network) in
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
  for _ = 1 to 50_000 do
    let a = Prelude.Rng.int rng (Array.length seq) in
    let b = Prelude.Rng.int rng (Array.length seq) in
    if a < b then begin
      incr total;
      if seq.(a) < seq.(b) then incr good
    end
  done;
  let agreement = Prelude.Stats.ratio !good !total in
  Alcotest.(check bool)
    (Printf.sprintf "agreement %.3f > 0.9" agreement)
    true (agreement > 0.9)

let works_under_record_loss () =
  let sc = Lazy.force scenario in
  let rng = Prelude.Rng.create ~seed:17L in
  let lossy =
    Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.3) rng
      (Scenario.Citysee.collected sc)
  in
  let flows = reconstruct_flows lossy ~sink:sc.sink in
  let items, stats = merge_flows lossy ~flows in
  Alcotest.(check int) "complete" stats.events (List.length items);
  Alcotest.(check bool) "has inferred events" true (stats.inferred > 0)

let hand_built_cross_packet_order () =
  (* Two packets share relay 2; node 2's log interleaves them — the global
     flow must keep P0's events on node 2 before P1's. *)
  let r ~node ~kind ~seq ~gseq : Logsys.Record.t =
    { node; kind; origin = 1; pkt_seq = seq; true_time = float_of_int gseq; gseq }
  in
  let logs =
    [|
      (* node 0 = sink *)
      [|
        r ~node:0 ~kind:(Recv { from = 2 }) ~seq:0 ~gseq:6;
        r ~node:0 ~kind:Deliver ~seq:0 ~gseq:7;
        r ~node:0 ~kind:(Recv { from = 2 }) ~seq:1 ~gseq:14;
        r ~node:0 ~kind:Deliver ~seq:1 ~gseq:15;
      |];
      (* node 1 = origin of both packets *)
      [|
        r ~node:1 ~kind:Gen ~seq:0 ~gseq:0;
        r ~node:1 ~kind:(Trans { to_ = 2 }) ~seq:0 ~gseq:1;
        r ~node:1 ~kind:(Ack_recvd { to_ = 2 }) ~seq:0 ~gseq:3;
        r ~node:1 ~kind:Gen ~seq:1 ~gseq:8;
        r ~node:1 ~kind:(Trans { to_ = 2 }) ~seq:1 ~gseq:9;
        r ~node:1 ~kind:(Ack_recvd { to_ = 2 }) ~seq:1 ~gseq:11;
      |];
      (* node 2 = shared relay; its log orders the two packets *)
      [|
        r ~node:2 ~kind:(Recv { from = 1 }) ~seq:0 ~gseq:2;
        r ~node:2 ~kind:(Trans { to_ = 0 }) ~seq:0 ~gseq:4;
        r ~node:2 ~kind:(Ack_recvd { to_ = 0 }) ~seq:0 ~gseq:5;
        r ~node:2 ~kind:(Recv { from = 1 }) ~seq:1 ~gseq:10;
        r ~node:2 ~kind:(Trans { to_ = 0 }) ~seq:1 ~gseq:12;
        r ~node:2 ~kind:(Ack_recvd { to_ = 0 }) ~seq:1 ~gseq:13;
      |];
    |]
  in
  let collected = Logsys.Collected.of_node_logs logs in
  let flows = reconstruct_flows collected ~sink:0 in
  let items, stats = merge_flows collected ~flows in
  Alcotest.(check int) "all 16 events" 16 stats.events;
  Alcotest.(check int) "nothing relaxed" 0 stats.relaxed;
  (* P0's recv on node 2 strictly precedes P1's recv on node 2. *)
  let idx_of seq kind =
    match
      List.find_index
        (fun (i : Refill.Flow.item) ->
          match i.payload with
          | Some (r : Logsys.Record.t) ->
              r.pkt_seq = seq && Logsys.Record.kind_name r.kind = kind
                && r.node = 2
          | None -> false)
        items
    with
    | Some i -> i
    | None -> Alcotest.failf "missing %s for packet %d" kind seq
  in
  Alcotest.(check bool) "relay order across packets" true
    (idx_of 0 "recv" < idx_of 1 "recv");
  Alcotest.(check bool) "P0 ack before P1 trans on relay" true
    (idx_of 0 "ack" < idx_of 1 "trans")

let inferred_anchor_inherits_following () =
  (* P0's relay reception is lost; the inferred stand-in has no log
     position, so [fill_anchors] must give it the anchor of the *following*
     logged item in its flow (the relay's late trans, anchor 0.75), not the
     preceding one (the origin's early trans, anchor 0.25).  P1's gen sits
     between the two (anchor 0.5) and is concurrent with the inferred item,
     so the heap order of that pair reveals which anchor was inherited. *)
  let r ~node ~origin ~kind ~seq ~gseq : Logsys.Record.t =
    { node; kind; origin; pkt_seq = seq; true_time = float_of_int gseq; gseq }
  in
  let logs =
    [|
      (* node 0 = sink: Q's delivery, then P0's *)
      [|
        r ~node:0 ~origin:2 ~kind:(Recv { from = 2 }) ~seq:0 ~gseq:4;
        r ~node:0 ~origin:2 ~kind:Deliver ~seq:0 ~gseq:5;
        r ~node:0 ~origin:1 ~kind:(Recv { from = 2 }) ~seq:0 ~gseq:10;
        r ~node:0 ~origin:1 ~kind:Deliver ~seq:0 ~gseq:11;
      |];
      (* node 1: P0's gen+trans, then P1's gen+trans *)
      [|
        r ~node:1 ~origin:1 ~kind:Gen ~seq:0 ~gseq:0;
        r ~node:1 ~origin:1 ~kind:(Trans { to_ = 2 }) ~seq:0 ~gseq:1;
        r ~node:1 ~origin:1 ~kind:Gen ~seq:1 ~gseq:7;
        r ~node:1 ~origin:1 ~kind:(Trans { to_ = 3 }) ~seq:1 ~gseq:8;
      |];
      (* node 2: its own packet Q first, then P0's (late) forward; P0's
         recv on this node was lost *)
      [|
        r ~node:2 ~origin:2 ~kind:Gen ~seq:0 ~gseq:2;
        r ~node:2 ~origin:2 ~kind:(Trans { to_ = 0 }) ~seq:0 ~gseq:3;
        r ~node:2 ~origin:2 ~kind:(Ack_recvd { to_ = 0 }) ~seq:0 ~gseq:6;
        r ~node:2 ~origin:1 ~kind:(Trans { to_ = 0 }) ~seq:0 ~gseq:9;
      |];
      (* node 3: P1's receiver; logged nothing *)
      [||];
    |]
  in
  let collected = Logsys.Collected.of_node_logs logs in
  let flows = reconstruct_flows collected ~sink:0 in
  let items, stats = merge_flows collected ~flows in
  Alcotest.(check int) "one inferred event" 1 stats.inferred;
  Alcotest.(check int) "nothing relaxed" 0 stats.relaxed;
  let idx_inferred =
    match
      List.find_index
        (fun (i : Refill.Flow.item) -> i.inferred && i.node = 2)
        items
    with
    | Some i -> i
    | None -> Alcotest.fail "inferred relay recv missing"
  in
  let idx_p1_gen =
    match
      List.find_index
        (fun (i : Refill.Flow.item) ->
          match i.payload with
          | Some ({ kind = Gen; pkt_seq = 1; _ } : Logsys.Record.t) -> true
          | _ -> false)
        items
    with
    | Some i -> i
    | None -> Alcotest.fail "P1 gen missing"
  in
  Alcotest.(check bool) "P1 gen precedes the inferred relay recv" true
    (idx_p1_gen < idx_inferred)

(* -- Reference oracle -------------------------------------------------------
   A direct copy of the pre-CSR list/Hashtbl implementation of the
   network-wide merge.  The production rewrite (flat arrays, interned
   packet ids, heap-based stall recovery, alignment replayed from rows)
   must be output-identical to this on every input; keeping the old code
   here pins that equivalence.  Two adjustments follow the row-based
   alignment: a logged item's queue is keyed by its flow's packet (on a
   reconstructed flow that is its payload's), and only an item with a row
   ({!Refill.Flow.row}) can match — an item without one stays at its
   queue's head, so the rest of the queue goes unmatched too. *)

module Reference = struct
  type stats = Refill.Global_flow.stats = {
    events : int;
    logged : int;
    inferred : int;
    relaxed : int;
  }

  (* The merge's output, plus the ids the log alignment matched and the ids
     stall recovery released (in release order) — what [Anchor_carry] and
     [Stall_recovery] provenance must mark. *)
  type run = {
    items : (Refill.Flow.t * int) list;
    stats : stats;
    matched : int list;
    matched_rows : (int * int * int) list;
        (** Per match, in log order: (node, log index of the item's own
            record, log index it was matched to). *)
    released : int list;
  }

  type tagged = {
    flow : Refill.Flow.t;
    item : Refill.Flow.item;
    row : int;
    packet : int * int;
    pos : int;
    mutable anchor : float;
  }

  let build collected ~flows =
    let all = ref [] in
    List.iter
      (fun (f : Refill.Flow.t) ->
        List.iteri
          (fun pos item ->
            all :=
              {
                flow = f;
                item;
                row = Refill.Flow.row f pos;
                packet = (f.origin, f.seq);
                pos;
                anchor = Float.nan;
              }
              :: !all)
          (Refill.Flow.items f))
      flows;
    let arr = Array.of_list (List.rev !all) in
    let n = Array.length arr in
    let hard_successors = Array.make n [] in
    let soft_successors = Array.make n [] in
    let hard_in = Array.make n 0 in
    let soft_in = Array.make n 0 in
    let add_hard a b =
      if a <> b then begin
        hard_successors.(a) <- b :: hard_successors.(a);
        hard_in.(b) <- hard_in.(b) + 1
      end
    in
    let add_soft a b =
      if a <> b then begin
        soft_successors.(a) <- b :: soft_successors.(a);
        soft_in.(b) <- soft_in.(b) + 1
      end
    in
    let last_of_packet = Hashtbl.create 256 in
    Array.iteri
      (fun id k ->
        (match Hashtbl.find_opt last_of_packet k.packet with
        | Some prev -> add_hard prev id
        | None -> ());
        Hashtbl.replace last_of_packet k.packet id)
      arr;
    let queues : (int * int * int, int Queue.t) Hashtbl.t =
      Hashtbl.create 256
    in
    Array.iteri
      (fun id k ->
        if not k.item.inferred then begin
          let origin, seq = k.packet in
          let key = (origin, seq, k.item.node) in
          let q =
            match Hashtbl.find_opt queues key with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add queues key q;
                q
          in
          Queue.add id q
        end)
      arr;
    let soft_edges = ref [] in
    let matched = ref [] and released = ref [] and matched_rows = ref [] in
    let log_index node row =
      let rows = Logsys.Arena.Packets.node_rows (Logsys.Collected.packets collected) node in
      Option.value ~default:(-1) (Array.find_index (( = ) row) rows)
    in
    for node = 0 to Logsys.Collected.n_nodes collected - 1 do
      let log = Logsys.Collected.node_log collected node in
      let len = float_of_int (max 1 (Array.length log)) in
      let last = ref None in
      Array.iteri
        (fun log_idx (r : Logsys.Record.t) ->
          let origin, seq = Logsys.Record.packet_key r in
          match Hashtbl.find_opt queues (origin, seq, node) with
          | None -> ()
          | Some q -> (
              match Queue.peek_opt q with
              | Some id
                when arr.(id).row >= 0
                     && (match arr.(id).item.payload with
                        | Some r' -> compare r r' = 0
                        | None -> false) ->
                  ignore (Queue.pop q : int);
                  matched := id :: !matched;
                  matched_rows :=
                    (node, log_index node arr.(id).row, log_idx)
                    :: !matched_rows;
                  arr.(id).anchor <- float_of_int log_idx /. len;
                  (match !last with
                  | Some prev -> soft_edges := (prev, id) :: !soft_edges
                  | None -> ());
                  last := Some id
              | Some _ | None -> ()))
        log
    done;
    let relaxed = ref 0 in
    List.iter
      (fun (a, b) ->
        if arr.(a).packet = arr.(b).packet && arr.(b).pos <= arr.(a).pos then
          incr relaxed
        else add_soft a b)
      !soft_edges;
    let fill_anchors () =
      let carry = Hashtbl.create 64 in
      for id = n - 1 downto 0 do
        let k = arr.(id) in
        if Float.is_nan k.anchor then begin
          match Hashtbl.find_opt carry k.packet with
          | Some a -> k.anchor <- a
          | None -> ()
        end
        else Hashtbl.replace carry k.packet k.anchor
      done;
      Hashtbl.reset carry;
      for id = 0 to n - 1 do
        let k = arr.(id) in
        if Float.is_nan k.anchor then begin
          match Hashtbl.find_opt carry k.packet with
          | Some a -> k.anchor <- a
          | None -> k.anchor <- 0.
        end
        else Hashtbl.replace carry k.packet k.anchor
      done
    in
    fill_anchors ();
    let module Pq = Prelude.Heap in
    let heap = Pq.create () in
    let ready id = hard_in.(id) = 0 && soft_in.(id) = 0 in
    Array.iteri
      (fun id k -> if ready id then Pq.push heap ~priority:k.anchor id)
      arr;
    let out = ref [] in
    let emitted = Array.make n false in
    let emitted_count = ref 0 in
    let emit id =
      emitted.(id) <- true;
      incr emitted_count;
      out := (arr.(id).flow, arr.(id).pos) :: !out;
      List.iter
        (fun succ ->
          hard_in.(succ) <- hard_in.(succ) - 1;
          if ready succ && not emitted.(succ) then
            Pq.push heap ~priority:arr.(succ).anchor succ)
        hard_successors.(id);
      List.iter
        (fun succ ->
          soft_in.(succ) <- soft_in.(succ) - 1;
          if ready succ && not emitted.(succ) then
            Pq.push heap ~priority:arr.(succ).anchor succ)
        soft_successors.(id)
    in
    while !emitted_count < n do
      match Pq.pop heap with
      | Some (_, id) -> if not emitted.(id) then emit id
      | None ->
          let best = ref (-1) in
          Array.iteri
            (fun id k ->
              if
                (not emitted.(id))
                && hard_in.(id) = 0
                && (!best < 0 || k.anchor < arr.(!best).anchor)
              then best := id)
            arr;
          relaxed := !relaxed + soft_in.(!best);
          soft_in.(!best) <- 0;
          released := !best :: !released;
          emit !best
    done;
    let items = List.rev !out in
    let logged =
      Array.fold_left
        (fun n k -> if k.item.inferred then n else n + 1)
        0 arr
    in
    {
      items;
      stats = { events = n; logged; inferred = n - logged; relaxed = !relaxed };
      matched = List.rev !matched;
      matched_rows = List.rev !matched_rows;
      released = List.rev !released;
    }
end

let check_same_output label
    { Reference.items = ref_items; stats = ref_stats; _ } (items, stats) =
  Alcotest.(check int) (label ^ ": events") ref_stats.Reference.events
    stats.Refill.Global_flow.events;
  Alcotest.(check int) (label ^ ": logged") ref_stats.logged stats.logged;
  Alcotest.(check int) (label ^ ": inferred") ref_stats.inferred stats.inferred;
  Alcotest.(check int) (label ^ ": relaxed") ref_stats.relaxed stats.relaxed;
  Alcotest.(check int)
    (label ^ ": item count")
    (List.length ref_items) (List.length items);
  (* Both implementations emit (flow, position) handles into the very
     flows they were given, so the sequences must agree element by
     element: the same flow, physically, at the same position. *)
  Alcotest.(check bool)
    (label ^ ": identical sequence")
    true
    (List.for_all2
       (fun (fa, pa) (fb, pb) -> fa == fb && pa = pb)
       ref_items items)

(* Flows keyed by identity: an emitted (flow, position) names its
   reference id, the flow's first id plus the position. *)
module Phys = Hashtbl.Make (struct
  type t = Refill.Flow.t

  let equal = ( == )
  let hash (f : t) = Hashtbl.hash (f.origin, f.seq)
end)

(* [merge ~emit_prov] must mark exactly the reference's released ids as
   [Stall_recovery], and exactly its logged, unmatched, unreleased ids as
   [Anchor_carry]. *)
let check_merge_provenance label collected ~flows (reference : Reference.run) =
  let base = Phys.create 1024 in
  let n =
    List.fold_left
      (fun id f ->
        Phys.replace base f id;
        id + Refill.Flow.length f)
      0 flows
  in
  let mark ids =
    let a = Array.make n false in
    List.iter (fun id -> a.(id) <- true) ids;
    a
  in
  let matched = mark reference.matched in
  let released = mark reference.released in
  let emitted = ref [] in
  let event = ref None in
  ignore
    (Refill.Global_flow.merge collected ~flows:(Array.of_list flows)
       ~emit:(fun e -> event := Some e)
       ~emit_prov:(fun pv ->
         let mech = Refill.Provenance.mechanism pv in
         emitted := (Option.get !event, mech) :: !emitted)
      : Refill.Global_flow.stats);
  Alcotest.(check int) (label ^ ": one provenance per item") n
    (List.length !emitted);
  List.iter
    (fun (({ flow; pos } : Refill.Global_flow.event), mech) ->
      let id = Phys.find base flow + pos in
      let carry =
        (not (Refill.Flow.inferred flow pos))
        && (not matched.(id)) && not released.(id)
      in
      if (mech = Refill.Provenance.Stall_recovery) <> released.(id)
         || (mech = Refill.Provenance.Anchor_carry) <> carry
      then
        Alcotest.failf "%s: id %d marked %s (released %b, matched %b)" label id
          (Refill.Provenance.mechanism_name mech)
          released.(id) matched.(id))
    !emitted

let matches_reference_implementation () =
  let sc = Lazy.force scenario in
  let cases =
    [
      ("lossless", Scenario.Citysee.collected sc);
      ( "uniform 0.3",
        Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.3)
          (Prelude.Rng.create ~seed:17L)
          (Scenario.Citysee.collected sc) );
      ( "uniform 0.6",
        Logsys.Collected.lossify (Logsys.Loss_model.uniform 0.6)
          (Prelude.Rng.create ~seed:99L)
          (Scenario.Citysee.collected sc) );
    ]
  in
  List.iter
    (fun (label, collected) ->
      let flows = reconstruct_flows collected ~sink:sc.sink in
      let reference = Reference.build collected ~flows in
      check_same_output label reference (merge_events collected ~flows);
      check_merge_provenance label collected ~flows reference)
    cases

let soft_cycle_stall_recovery () =
  (* Two packets cross in opposite directions through relays 3 and 4:
     X travels 1→3→4→0, Y travels 2→4→3→0.  Node 3 logs Y's events before
     X's; node 4 logs X's before Y's.  The two cross-packet node-log
     constraints (Y-ack@3 before X-recv@3, X-ack@4 before Y-recv@4) plus
     the two hard flow chains form a cycle, so exactly one constraint must
     be dropped by stall recovery.  Both stalled candidates carry anchor
     3/6; the tie breaks on the lower event id, i.e. packet X (packet keys
     sort (1,0) < (2,0)), pinning which constraint survives. *)
  let r ~node ~origin ~kind ~gseq : Logsys.Record.t =
    { node; kind; origin; pkt_seq = 0; true_time = float_of_int gseq; gseq }
  in
  let logs =
    [|
      (* node 0 = sink *)
      [|
        r ~node:0 ~origin:1 ~kind:(Recv { from = 4 }) ~gseq:19;
        r ~node:0 ~origin:1 ~kind:Deliver ~gseq:20;
        r ~node:0 ~origin:2 ~kind:(Recv { from = 3 }) ~gseq:21;
        r ~node:0 ~origin:2 ~kind:Deliver ~gseq:22;
      |];
      (* node 1 = X's origin *)
      [|
        r ~node:1 ~origin:1 ~kind:Gen ~gseq:0;
        r ~node:1 ~origin:1 ~kind:(Trans { to_ = 3 }) ~gseq:1;
        r ~node:1 ~origin:1 ~kind:(Ack_recvd { to_ = 3 }) ~gseq:2;
      |];
      (* node 2 = Y's origin *)
      [|
        r ~node:2 ~origin:2 ~kind:Gen ~gseq:3;
        r ~node:2 ~origin:2 ~kind:(Trans { to_ = 4 }) ~gseq:4;
        r ~node:2 ~origin:2 ~kind:(Ack_recvd { to_ = 4 }) ~gseq:5;
      |];
      (* node 3: Y's events first, then X's *)
      [|
        r ~node:3 ~origin:2 ~kind:(Recv { from = 4 }) ~gseq:10;
        r ~node:3 ~origin:2 ~kind:(Trans { to_ = 0 }) ~gseq:11;
        r ~node:3 ~origin:2 ~kind:(Ack_recvd { to_ = 0 }) ~gseq:12;
        r ~node:3 ~origin:1 ~kind:(Recv { from = 1 }) ~gseq:13;
        r ~node:3 ~origin:1 ~kind:(Trans { to_ = 4 }) ~gseq:14;
        r ~node:3 ~origin:1 ~kind:(Ack_recvd { to_ = 4 }) ~gseq:15;
      |];
      (* node 4: X's events first, then Y's *)
      [|
        r ~node:4 ~origin:1 ~kind:(Recv { from = 3 }) ~gseq:6;
        r ~node:4 ~origin:1 ~kind:(Trans { to_ = 0 }) ~gseq:7;
        r ~node:4 ~origin:1 ~kind:(Ack_recvd { to_ = 0 }) ~gseq:8;
        r ~node:4 ~origin:2 ~kind:(Recv { from = 2 }) ~gseq:16;
        r ~node:4 ~origin:2 ~kind:(Trans { to_ = 3 }) ~gseq:17;
        r ~node:4 ~origin:2 ~kind:(Ack_recvd { to_ = 3 }) ~gseq:18;
      |];
    |]
  in
  let collected = Logsys.Collected.of_node_logs logs in
  let flows = reconstruct_flows collected ~sink:0 in
  let events, stats = merge_events collected ~flows in
  let items = List.map (fun (f, pos) -> Refill.Flow.item f pos) events in
  let reference = Reference.build collected ~flows in
  check_same_output "soft cycle" reference (events, stats);
  check_merge_provenance "soft cycle" collected ~flows reference;
  Alcotest.(check int) "one stall release" 1 (List.length reference.released);
  Alcotest.(check int) "all 22 events" 22 stats.events;
  Alcotest.(check int) "nothing inferred" 0 stats.inferred;
  Alcotest.(check int) "exactly one constraint relaxed" 1 stats.relaxed;
  let idx ~origin ~node kind =
    match
      List.find_index
        (fun (i : Refill.Flow.item) ->
          match i.payload with
          | Some (r : Logsys.Record.t) ->
              r.origin = origin && r.node = node
              && Logsys.Record.kind_name r.kind = kind
          | None -> false)
        items
    with
    | Some i -> i
    | None -> Alcotest.failf "missing %s@%d for origin %d" kind node origin
  in
  (* The dropped constraint is node 3's: X's recv jumps ahead of Y's ack. *)
  Alcotest.(check bool) "X released on node 3" true
    (idx ~origin:1 ~node:3 "recv" < idx ~origin:2 ~node:3 "ack");
  (* Node 4's constraint survives: Y waits for X's ack there. *)
  Alcotest.(check bool) "Y still waits on node 4" true
    (idx ~origin:1 ~node:4 "ack" < idx ~origin:2 ~node:4 "recv")

let order_preservation_property =
  (* Under arbitrary uniform loss, the merged flow must (a) keep every
     packet's own flow order exactly and (b) violate at most
     [stats.relaxed] of the matched cross-packet per-node log pairs. *)
  QCheck.Test.make ~name:"merge preserves packet and node-log order" ~count:5
    QCheck.(pair (int_range 0 8) small_nat)
    (fun (rate10, seed) ->
      let sc = Lazy.force scenario in
      let collected =
        let base = Scenario.Citysee.collected sc in
        if rate10 = 0 then base
        else
          Logsys.Collected.lossify
            (Logsys.Loss_model.uniform (float_of_int rate10 /. 10.))
            (Prelude.Rng.create ~seed:(Int64.of_int seed))
            base
      in
      let flows = reconstruct_flows collected ~sink:sc.sink in
      let items, stats = merge_flows collected ~flows in
      (* Position of every logged event, keyed by its unique gseq. *)
      let pos = Hashtbl.create 4096 in
      List.iteri
        (fun idx (i : Refill.Flow.item) ->
          if not i.inferred then
            match i.payload with
            | Some (r : Logsys.Record.t) -> Hashtbl.replace pos r.gseq idx
            | None -> ())
        items;
      (* (a) logged items of each flow appear at increasing positions. *)
      let packet_order_ok =
        List.for_all
          (fun (f : Refill.Flow.t) ->
            let last = ref (-1) in
            List.for_all
              (fun (i : Refill.Flow.item) ->
                if i.inferred then true
                else
                  match i.payload with
                  | None -> true
                  | Some r -> (
                      match Hashtbl.find_opt pos r.gseq with
                      | None -> false
                      | Some p ->
                          let ok = p > !last in
                          last := p;
                          ok))
              (Refill.Flow.items f))
          flows
      in
      (* (b) replicate the per-node log alignment to find the matched
         events, then count adjacent matched pairs emitted out of order. *)
      let queues : (int * int * int, Logsys.Record.t Queue.t) Hashtbl.t =
        Hashtbl.create 256
      in
      List.iter
        (fun (f : Refill.Flow.t) ->
          List.iter
            (fun (i : Refill.Flow.item) ->
              if not i.inferred then
                match i.payload with
                | Some (r : Logsys.Record.t) ->
                    let key = (r.origin, r.pkt_seq, i.node) in
                    let q =
                      match Hashtbl.find_opt queues key with
                      | Some q -> q
                      | None ->
                          let q = Queue.create () in
                          Hashtbl.add queues key q;
                          q
                    in
                    Queue.add r q
                | None -> ())
            (Refill.Flow.items f))
        flows;
      let violations = ref 0 in
      for node = 0 to Logsys.Collected.n_nodes collected - 1 do
        let last = ref None in
        Array.iter
          (fun (r : Logsys.Record.t) ->
            match Hashtbl.find_opt queues (r.origin, r.pkt_seq, node) with
            | None -> ()
            | Some q -> (
                match Queue.peek_opt q with
                | Some r' when Logsys.Record.equal r r' ->
                    ignore (Queue.pop q : Logsys.Record.t);
                    (match !last with
                    | Some prev_gseq ->
                        if Hashtbl.find pos prev_gseq > Hashtbl.find pos r.gseq
                        then incr violations
                    | None -> ());
                    last := Some r.gseq
                | Some _ | None -> ()))
          (Logsys.Collected.node_log collected node)
      done;
      packet_order_ok && !violations <= stats.relaxed)

(* Inputs the reconstruction never produces, which the merge must still
   treat exactly as the oracle does: a payload swapped for another packet's
   record on the same node; a payload keyed by a packet no flow has (its
   flow dropped) and by one absent from the snapshot; an item moved off
   the node range; two logged items of one flow on one node swapped, so
   the greedy alignment skips a row; and a flow split in two under one
   key, as late fragments reach the incremental merge.  An altered item is
   built without a row, as a hand-built flow's would be; a moved or
   split item keeps its own. *)
let perturb rng collected flows =
  let module Rng = Prelude.Rng in
  let n_nodes = Logsys.Collected.n_nodes collected in
  let flows = Array.of_list flows in
  let items =
    Array.map
      (fun (f : Refill.Flow.t) ->
        Array.of_list
          (List.mapi (fun pos it -> (it, Refill.Flow.row f pos)) (Refill.Flow.items f)))
      flows
  in
  let logged fi =
    List.filter
      (fun k ->
        let (it : Refill.Flow.item), _ = items.(fi).(k) in
        (not it.inferred) && it.payload <> None)
      (List.init (Array.length items.(fi)) Fun.id)
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let all = List.init (Array.length flows) Fun.id in
  let with_logged = List.filter (fun fi -> logged fi <> []) all in
  let dropped = pick with_logged in
  let kept = List.filter (( <> ) dropped) with_logged in
  let update f =
    let fi = pick kept in
    let k = pick (logged fi) in
    let it, _ = items.(fi).(k) in
    items.(fi).(k) <- (f it (Option.get it.Refill.Engine.payload), -1)
  in
  update (fun it r ->
      match
        List.filter
          (fun (r' : Logsys.Record.t) ->
            Logsys.Record.packet_key r' <> Logsys.Record.packet_key r)
          (Array.to_list (Logsys.Collected.node_log collected it.node))
      with
      | [] -> it
      | others -> { it with payload = Some (pick others) });
  let orphan =
    Option.get (fst items.(dropped).(pick (logged dropped))).payload
  in
  update (fun it _ -> { it with node = orphan.node; payload = Some orphan });
  update (fun it r ->
      let origin = if Rng.bool rng then -7 else n_nodes + 1000 in
      { it with payload = Some { r with origin } });
  update (fun it _ ->
      let node = if Rng.bool rng then -1 else n_nodes + Rng.int rng 3 in
      { it with node });
  let node_of fi k = (fst items.(fi).(k)).Refill.Engine.node in
  (match
     List.concat_map
       (fun fi ->
         List.concat_map
           (fun k1 ->
             List.filter_map
               (fun k2 ->
                 if k1 < k2 && node_of fi k1 = node_of fi k2 then
                   Some (fi, k1, k2)
                 else None)
               (logged fi))
           (logged fi))
       kept
   with
  | [] -> ()
  | pairs ->
      let fi, k1, k2 = pick pairs in
      let a = items.(fi).(k1) in
      items.(fi).(k1) <- items.(fi).(k2);
      items.(fi).(k2) <- a);
  let arena = Logsys.Arena.Packets.arena (Logsys.Collected.packets collected) in
  let rebuild (f : Refill.Flow.t) entries =
    Refill.Flow.of_items ~arena ~origin:f.origin ~seq:f.seq ~stats:f.stats
      ~rows:(Array.of_list (List.map snd entries))
      (List.map fst entries)
  in
  let flows =
    List.filter_map
      (fun fi ->
        if fi = dropped then None
        else Some (flows.(fi), Array.to_list items.(fi)))
      all
  in
  match List.filter (fun (_, entries) -> List.length entries >= 2) flows with
  | [] -> List.map (fun (f, e) -> rebuild f e) flows
  | long ->
      let ((f, entries) as chosen) = pick long in
      let cut = 1 + Rng.int rng (List.length entries - 1) in
      let head = List.filteri (fun i _ -> i < cut) entries
      and tail = List.filteri (fun i _ -> i >= cut) entries in
      List.map
        (fun ((g, e) as x) -> if x == chosen then rebuild g head else rebuild g e)
        flows
      @ [ rebuild f tail ]

let perturbed_inputs_match_reference =
  QCheck.Test.make ~name:"perturbed inputs match the reference"
    ~count:20
    QCheck.(pair (int_range 0 6) small_nat)
    (fun (rate10, seed) ->
      let sc = Lazy.force scenario in
      let collected =
        Logsys.Collected.lossify
          (Logsys.Loss_model.uniform (float_of_int rate10 /. 10.))
          (Prelude.Rng.create ~seed:(Int64.of_int seed))
          (Scenario.Citysee.collected sc)
      in
      let flows =
        perturb
          (Prelude.Rng.create ~seed:(Int64.of_int ((seed * 10) + rate10)))
          collected
          (reconstruct_flows collected ~sink:sc.sink)
      in
      let reference = Reference.build collected ~flows in
      let label = Printf.sprintf "loss %d/10 seed %d" rate10 seed in
      check_same_output label reference (merge_events collected ~flows);
      check_merge_provenance label collected ~flows reference;
      true)

let stage_spans () =
  (* Each merge phase is its own span, once per merge, inside the merge's
     span. *)
  let module Obs = Refill_obs in
  let sc = Lazy.force scenario in
  let collected = Scenario.Citysee.collected sc in
  let flows = reconstruct_flows collected ~sink:sc.sink in
  let sink = Obs.Sink.memory () in
  let prev = Obs.Span.swap_sink sink in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Span.swap_sink prev : Obs.Sink.t))
    (fun () -> ignore (merge_flows collected ~flows));
  let dur name =
    match
      List.filter
        (fun (e : Obs.Sink.event) -> e.name = name)
        (Obs.Sink.events sink)
    with
    | [ e ] -> e.dur_us
    | es -> Alcotest.failf "%s: %d events" name (List.length es)
  in
  let stages =
    List.map
      (fun s -> dur ("refill.global_flow." ^ s))
      [ "fill"; "align"; "order"; "emit" ]
  in
  Alcotest.(check bool) "stages fit in the merge span" true
    (List.fold_left ( +. ) 0. stages <= dur "refill.global_flow")

(* The merge's alignment against the oracle's on a hand-built packet: the
   same sequence and stats, the same [Anchor_carry] and [Stall_recovery]
   marks; [rows] checks which log row the oracle matched each logged
   item to, as (node, log index of the item's own record, log index
   matched). *)
let check_hand_built label ?(config = Refill.Config.default) logs ~sink ~rows
    =
  let collected = Logsys.Collected.of_node_logs logs in
  let acc = ref [] in
  Refill.Reconstruct.run ~config collected ~sink ~emit:(fun f ->
      acc := f :: !acc);
  let flows = List.rev !acc in
  let reference = Reference.build collected ~flows in
  check_same_output label reference (merge_events collected ~flows);
  check_merge_provenance label collected ~flows reference;
  Alcotest.(check (list (triple int int int)))
    (label ^ ": rows the oracle matched")
    rows reference.matched_rows

(* A prerequisite drive can emit a node's later record first.  Origin 2
   logged nothing; the sink's recv drives relay 1, whose ack drives the
   sink to [holding] by consuming its deliver — so the sink's deliver is
   emitted before its recv.  The greedy walk matches deliver, then finds
   no row left for recv: recv stays unmatched (an anchor carry).
   Matching each item to its own row would match recv too, and count the
   sink's log order against the flow as a relaxed constraint. *)
let later_record_emitted_first () =
  let r ~node ~kind ~gseq : Logsys.Record.t =
    { node; kind; origin = 2; pkt_seq = 9; true_time = float_of_int gseq; gseq }
  in
  let logs =
    [|
      [| r ~node:0 ~kind:(Recv { from = 1 }) ~gseq:1; r ~node:0 ~kind:Deliver ~gseq:2 |];
      [| r ~node:1 ~kind:(Ack_recvd { to_ = 0 }) ~gseq:3 |];
      [||];
    |]
  in
  check_hand_built "later record first" logs ~sink:0
    ~rows:[ (0, 1, 1); (1, 0, 0) ]

(* Two [Record.equal] records on one relay, the engine skipping the
   first: without intra-node inference the relay's first dup finds no
   transition at [init], its trans none either, and only the sink's recv
   drives it to [sent], where the second dup fires.  The greedy walk
   matches that item to the first equal row, so its anchor is the first
   dup's log position, before the relay's own packet's gen — not its own
   row's, after it. *)
let equal_records_first_skipped () =
  let r ~node ~origin ~kind ~gseq : Logsys.Record.t =
    { node; kind; origin; pkt_seq = 0; true_time = float_of_int gseq; gseq }
  in
  let dup = r ~node:2 ~origin:1 ~kind:(Dup { from = 1 }) ~gseq:3 in
  let logs =
    [|
      [||];
      [| r ~node:1 ~origin:1 ~kind:Gen ~gseq:0; r ~node:1 ~origin:1 ~kind:(Trans { to_ = 2 }) ~gseq:1 |];
      [| dup; r ~node:2 ~origin:2 ~kind:Gen ~gseq:4; r ~node:2 ~origin:1 ~kind:(Trans { to_ = 3 }) ~gseq:5; dup |];
      [| r ~node:3 ~origin:1 ~kind:(Recv { from = 2 }) ~gseq:6; r ~node:3 ~origin:1 ~kind:Deliver ~gseq:7 |];
    |]
  in
  check_hand_built "first of two equal records skipped"
    ~config:{ Refill.Config.default with use_intra = false }
    logs ~sink:3
    ~rows:[ (1, 0, 0); (1, 1, 1); (2, 3, 0); (2, 1, 1); (3, 0, 0); (3, 1, 1) ]

(* Empty flows inside a hard chain.  A packet's hard chain runs through
   its flows in order, each linked to the next non-empty flow of its key,
   so an empty flow of the packet between (or after) its two parts must
   not break the chain, and a packet whose only flow is empty, placed
   between them, must neither start a chain nor release the second part:
   both merge exactly as the oracle's per-key last item has it. *)
let empty_flows_in_hard_chains () =
  let sc = Lazy.force scenario in
  let collected = Scenario.Citysee.collected sc in
  let flows = reconstruct_flows collected ~sink:sc.sink in
  let arena = Logsys.Arena.Packets.arena (Logsys.Collected.packets collected) in
  let rebuild (f : Refill.Flow.t) entries =
    Refill.Flow.of_items ~arena ~origin:f.origin ~seq:f.seq ~stats:f.stats
      ~rows:(Array.of_list (List.map snd entries))
      (List.map fst entries)
  in
  let only = List.hd flows in
  let split = List.find (fun f -> f != only && Refill.Flow.length f >= 4) flows in
  let entries =
    List.mapi (fun pos it -> (it, Refill.Flow.row split pos)) (Refill.Flow.items split)
  in
  let cut = List.length entries / 2 in
  let head = List.filteri (fun i _ -> i < cut) entries
  and tail = List.filteri (fun i _ -> i >= cut) entries in
  let around middle =
    List.concat_map
      (fun f ->
        if f == split then [ rebuild f head; middle; rebuild f tail ]
        else if f == only then []
        else [ f ])
      flows
  in
  List.iter
    (fun (label, flows) ->
      let reference = Reference.build collected ~flows in
      check_same_output label reference (merge_events collected ~flows);
      check_merge_provenance label collected ~flows reference)
    [
      ( "non-empty, empty, non-empty, empty",
        around (rebuild split []) @ [ only; rebuild split [] ] );
      ("a packet's only flow empty", around (rebuild only []));
    ]

(* The merge's major-heap allocation per merged item: three words and a
   flag byte per item, a word per log row, and per-flow links.  Counted
   with [Gc.counters]: on OCaml 5.1, [Gc.quick_stat]'s [major_words]
   reads 0 across this call. *)
let merge_allocation_per_item () =
  let sc = Lazy.force scenario in
  let collected = Scenario.Citysee.collected sc in
  let flows = Array.of_list (reconstruct_flows collected ~sink:sc.sink) in
  let _, _, before = Gc.counters () in
  let stats = Refill.Global_flow.merge collected ~flows ~emit:ignore in
  let _, _, after = Gc.counters () in
  let per_item = (after -. before) /. float_of_int stats.events in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per item (%d items), at most 8" per_item
       stats.events)
    true (per_item <= 8.)

let empty_inputs () =
  let empty = Logsys.Collected.of_node_logs [| [||]; [||] |] in
  let items, stats = merge_flows empty ~flows:[] in
  Alcotest.(check int) "no events" 0 (List.length items);
  Alcotest.(check int) "no relaxations" 0 stats.relaxed

let () =
  Alcotest.run "global-flow"
    [
      ( "merge",
        [
          Alcotest.test_case "counts" `Quick counts_add_up;
          Alcotest.test_case "per-packet order preserved" `Quick
            preserves_per_packet_flow_order;
          Alcotest.test_case "wall-clock agreement" `Quick
            wall_clock_agreement_high;
          Alcotest.test_case "under record loss" `Quick works_under_record_loss;
          Alcotest.test_case "cross-packet relay order" `Quick
            hand_built_cross_packet_order;
          Alcotest.test_case "inferred anchor inherits following" `Quick
            inferred_anchor_inherits_following;
          Alcotest.test_case "empty" `Quick empty_inputs;
          Alcotest.test_case "stage spans" `Quick stage_spans;
          Alcotest.test_case "allocation per item" `Quick
            merge_allocation_per_item;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "matches reference implementation" `Quick
            matches_reference_implementation;
          Alcotest.test_case "soft cycle stall recovery" `Quick
            soft_cycle_stall_recovery;
          Alcotest.test_case "a later record emitted first" `Quick
            later_record_emitted_first;
          Alcotest.test_case "first of two equal records skipped" `Quick
            equal_records_first_skipped;
          Alcotest.test_case "empty flows in a hard chain" `Quick
            empty_flows_in_hard_chains;
          QCheck_alcotest.to_alcotest order_preservation_property;
          QCheck_alcotest.to_alcotest perturbed_inputs_match_reference;
        ] );
    ]
