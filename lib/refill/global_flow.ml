(* The network-wide merge is the pipeline stage that sees every event at
   once (~1.4M items on the 30-day CitySee rung), so its data layout is
   flat and index-based throughout:

   - items live in one array filled by two counted passes over the flows
     (no per-flow cons lists, no [Array.of_list]);
   - packet identities are interned to dense ints ([pid]s) via int-packed
     [(origin, seq)] keys, so the hot lookups hash machine ints instead of
     tuples;
   - hard edges (per-packet flow order) are consecutive chains, stored as
     a single-successor array; soft edges (cross-packet node-log order)
     are a CSR adjacency built in two counted passes;
   - the per-node log alignment that discovers soft edges touches disjoint
     state per node, so it fans out across domains via {!Par};
   - stall recovery pops a secondary min-heap of hard-ready events keyed
     lexicographically by [(anchor, id)] — O(log n) per relaxation where
     the previous implementation rescanned all n items per soft cycle
     (O(n^2) worst case).

   The emission order is bit-identical to the straightforward
   list-and-hashtable implementation this replaced (the test suite keeps a
   copy of it as an oracle): the main Kahn heap receives the same pushes
   in the same sequence, and the stall heap's [(anchor, id)] key
   reproduces the old linear scan's smallest-anchor-then-smallest-id
   choice. *)

module Obs = Refill_obs

type stats = { events : int; logged : int; inferred : int; relaxed : int }

let h_seconds =
  Obs.Metrics.Histogram.v "refill_global_flow_seconds"
    ~help:"Wall time to merge all per-packet flows into the global flow."

let c_events =
  Obs.Metrics.Counter.v "refill_global_flow_events_total"
    ~help:"Events merged into network-wide flows."

let c_relaxed =
  Obs.Metrics.Counter.v "refill_global_flow_relaxed_total"
    ~help:
      "Cross-packet node-log constraints dropped during merges (concurrency, \
       not error)."

let c_stalls =
  Obs.Metrics.Counter.v "refill_global_flow_stall_recoveries_total"
    ~help:"Soft-cycle stalls broken by releasing a hard-ready event."

(* Merge-side provenance mechanisms; the engine-side ones (logged, intra,
   inter) are counted by Reconstruct under the same metric name. *)
let c_prov_stall =
  Obs.Metrics.Counter.v "refill_provenance_events_total"
    ~help:"Events emitted per provenance mechanism (provenance-enabled runs)."
    ~labels:[ ("mechanism", Provenance.mechanism_name Provenance.Stall_recovery) ]

let c_prov_carry =
  Obs.Metrics.Counter.v "refill_provenance_events_total"
    ~help:"Events emitted per provenance mechanism (provenance-enabled runs)."
    ~labels:[ ("mechanism", Provenance.mechanism_name Provenance.Anchor_carry) ]

(* Packet interning.  Origins and seqs are small nonnegative ints for
   every logger-produced record (the same observation the [Arena.Packets]
   index relies on), so the common case packs them into one int key;
   anything exotic (hand-built logs) falls back to a tuple-keyed table. *)
let dense_limit = 1 lsl 28

type interner = {
  dense : (int, int) Hashtbl.t;
  exotic : (int * int, int) Hashtbl.t;
  mutable n_pids : int;
}

let interner_create n_hint =
  {
    dense = Hashtbl.create (max 64 n_hint);
    exotic = Hashtbl.create 8;
    n_pids = 0;
  }

let pid_intern t ~origin ~seq =
  let fresh tbl key =
    match Hashtbl.find_opt tbl key with
    | Some pid -> pid
    | None ->
        let pid = t.n_pids in
        t.n_pids <- pid + 1;
        Hashtbl.add tbl key pid;
        pid
  in
  if origin >= 0 && origin < dense_limit && seq >= 0 && seq < dense_limit then
    fresh t.dense ((origin lsl 28) lor seq)
  else fresh t.exotic (origin, seq)

(* Lookup without interning — absent keys mean "no constraint", exactly as
   a missing queue did in the hashtable implementation. *)
let pid_find t ~origin ~seq =
  if origin >= 0 && origin < dense_limit && seq >= 0 && seq < dense_limit then
    Hashtbl.find_opt t.dense ((origin lsl 28) lor seq)
  else Hashtbl.find_opt t.exotic (origin, seq)

(* A tiny growable int buffer for the per-node edge lists (edges are
   appended as flattened [src; dst] pairs). *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf_create () = { data = Array.make 64 0; len = 0 }

let ibuf_push2 b x y =
  if b.len + 2 > Array.length b.data then begin
    let grown = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- x;
  b.data.(b.len + 1) <- y;
  b.len <- b.len + 2

(* Where the merge reads per-node logs from: an arena-indexed packet
   index (columns; the alignment never materializes a record). *)
type log_source = Arena_index of Logsys.Arena.Packets.t

let merge_untimed ?jobs ?emit_prov (Arena_index packets)
    ~(flows : Flow.t array) ~emit:emit_item =
  (* ---- Pass 1: count items and intern every flow's packet. ---- *)
  let n_flows = Array.length flows in
  let interner = interner_create n_flows in
  let flow_pid = Array.make n_flows 0 in
  let n = ref 0 in
  Array.iteri
    (fun fi (f : Flow.t) ->
      flow_pid.(fi) <- pid_intern interner ~origin:f.origin ~seq:f.seq;
      n := !n + List.length f.items)
    flows;
  let n = !n in
  if n = 0 then { events = 0; logged = 0; inferred = 0; relaxed = 0 }
  else begin
    let dummy =
      match Array.find_opt (fun (f : Flow.t) -> f.items <> []) flows with
      | Some f -> List.hd f.items
      | None -> assert false
    in
    (* ---- Pass 2: flat fill.  Ids are assigned in flow order, so each
       packet's hard chain is a run of consecutive ids; [last_of_pid]
       extends the chain across flows that share a packet key, mirroring
       the per-packet linearization exactly. ---- *)
    let items = Array.make n dummy in
    let packet_of = Array.make n 0 in
    let pos_of = Array.make n 0 in
    let anchors = Array.make n Float.nan in
    let hard_succ = Array.make n (-1) in
    let hard_in = Array.make n 0 in
    let logged = ref 0 in
    let last_of_pid = Array.make interner.n_pids (-1) in
    (* Provenance side-cars, allocated only when the caller listens.  Each
       item's base provenance comes from its flow's side-car when the flows
       were reconstructed with provenance on; otherwise it is synthesized
       from the item alone (no evidence, lowest confidence for inferred). *)
    let want_prov = emit_prov <> None in
    let synth_prov (item : _ Engine.item) =
      if item.Engine.inferred then
        Provenance.with_confidence Provenance.Low
          (Provenance.make2 Provenance.Intra_inference
             ~src:item.Engine.entered ~dst:item.Engine.entered ~e1:(-1)
             ~e2:(-1))
      else
        Provenance.make2 Provenance.Logged ~src:item.Engine.entered
          ~dst:item.Engine.entered ~e1:(-1) ~e2:(-1)
    in
    let prov_of =
      if want_prov then Array.make n (synth_prov dummy) else [||]
    in
    let aligned = if want_prov then Array.make n false else [||] in
    let cursor = ref 0 in
    Array.iteri
      (fun fi (f : Flow.t) ->
        let pid = flow_pid.(fi) in
        let fprov = f.prov in
        let n_fprov = Array.length fprov in
        List.iteri
          (fun pos item ->
            let id = !cursor in
            incr cursor;
            items.(id) <- item;
            packet_of.(id) <- pid;
            pos_of.(id) <- pos;
            if want_prov then
              prov_of.(id) <-
                (if pos < n_fprov then fprov.(pos) else synth_prov item);
            if not item.Engine.inferred then incr logged;
            let prev = last_of_pid.(pid) in
            if prev >= 0 && prev <> id then begin
              hard_succ.(prev) <- id;
              hard_in.(id) <- hard_in.(id) + 1
            end;
            last_of_pid.(pid) <- id)
          f.items)
      flows;
    (* ---- Soft-constraint candidates: for each (packet, node), the
       logged items whose payloads can be aligned with that node's log, in
       flow order.  CSR over dense slots, two counted passes; the node
       component of the slot key partitions slots across nodes, which is
       what lets the alignment below run per-node in parallel. ---- *)
    let n_nodes = Logsys.Arena.Packets.n_nodes packets in
    let slot_tbl : (int, int) Hashtbl.t = Hashtbl.create (max 64 n_flows) in
    let n_slots = ref 0 in
    let q_count = Array.make n 0 in
    let eligible = ref 0 in
    let slot_key id (r : Logsys.Record.t) =
      let item = items.(id) in
      if item.Engine.inferred || item.Engine.node < 0
         || item.Engine.node >= n_nodes
      then None
      else
        match pid_find interner ~origin:r.origin ~seq:r.pkt_seq with
        | None -> None
        | Some qpid -> Some ((qpid * n_nodes) + item.Engine.node)
    in
    for id = 0 to n - 1 do
      match items.(id).Engine.payload with
      | None -> ()
      | Some r -> (
          (* Payload packets are interned too: a payload key that never
             appeared as a flow key still forms its own queue. *)
          let item = items.(id) in
          if
            (not item.Engine.inferred)
            && item.Engine.node >= 0
            && item.Engine.node < n_nodes
          then begin
            let qpid = pid_intern interner ~origin:r.origin ~seq:r.pkt_seq in
            let key = (qpid * n_nodes) + item.Engine.node in
            let slot =
              match Hashtbl.find_opt slot_tbl key with
              | Some s -> s
              | None ->
                  let s = !n_slots in
                  incr n_slots;
                  Hashtbl.add slot_tbl key s;
                  s
            in
            q_count.(slot) <- q_count.(slot) + 1;
            incr eligible
          end)
    done;
    let n_slots = !n_slots in
    let q_off = Array.make (n_slots + 1) 0 in
    for s = 0 to n_slots - 1 do
      q_off.(s + 1) <- q_off.(s) + q_count.(s)
    done;
    let q_ids = Array.make (max 1 !eligible) 0 in
    let q_fill = Array.make (max 1 n_slots) 0 in
    for id = 0 to n - 1 do
      match items.(id).Engine.payload with
      | None -> ()
      | Some r -> (
          match slot_key id r with
          | None -> ()
          | Some key ->
              let slot = Hashtbl.find slot_tbl key in
              q_ids.(q_off.(slot) + q_fill.(slot)) <- id;
              q_fill.(slot) <- q_fill.(slot) + 1)
    done;
    (* ---- Per-node alignment: walk each node's log, matching records
       against the head of their (packet, node) candidate run; a match
       fixes the item's anchor (its log-position fraction) and chains a
       soft edge from the previously matched item on that node.  Each
       worker touches only its node's slots, cursors and matched item ids,
       so nodes fan out across domains; interner reads are lookups into
       tables no longer being written. ---- *)
    let q_cursor = Array.make (max 1 n_slots) 0 in
    let arena = Logsys.Arena.Packets.arena packets in
    let align node =
      let rows = Logsys.Arena.Packets.node_rows packets node in
      let len = float_of_int (max 1 (Array.length rows)) in
      let edges = ibuf_create () in
      let last = ref (-1) in
      Array.iteri
        (fun log_idx row ->
          let origin = Logsys.Arena.origin arena row
          and seq = Logsys.Arena.pkt_seq arena row in
          match pid_find interner ~origin ~seq with
          | None -> ()
          | Some qpid -> (
              match Hashtbl.find_opt slot_tbl ((qpid * n_nodes) + node) with
              | None -> ()
              | Some slot ->
                  let cur = q_cursor.(slot) in
                  if cur < q_off.(slot + 1) - q_off.(slot) then begin
                    let id = q_ids.(q_off.(slot) + cur) in
                    match items.(id).Engine.payload with
                    | Some r' when Logsys.Arena.equal_record arena row r' ->
                        q_cursor.(slot) <- cur + 1;
                        anchors.(id) <- float_of_int log_idx /. len;
                        (* Distinct ids per node: safe to write from the
                           per-node workers, like [anchors] above. *)
                        if want_prov then aligned.(id) <- true;
                        if !last >= 0 then ibuf_push2 edges !last id;
                        last := id
                    | Some _ | None -> ()
                  end))
        rows;
      Array.sub edges.data 0 edges.len
    in
    let jobs =
      match jobs with Some j -> max 1 j | None -> Par.default_jobs ()
    in
    let jobs = if n < Par.min_parallel_items then 1 else jobs in
    let node_edges =
      Par.map_array ~jobs align (Array.init n_nodes (fun i -> i))
    in
    (* ---- Soft CSR.  A soft edge opposing a hard (same-packet) path is a
       concurrent pair whose linearization chose the other interleaving:
       dropped and counted, not an error.  Surviving edges are laid out in
       discovery order (nodes ascending, log order within a node), which
       is the successor order emission traverses. ---- *)
    let relaxed = ref 0 in
    let soft_in = Array.make n 0 in
    let soft_out = Array.make n 0 in
    let n_soft = ref 0 in
    let iter_edges f =
      Array.iter
        (fun (edges : int array) ->
          let m = Array.length edges in
          let k = ref 0 in
          while !k < m do
            f edges.(!k) edges.(!k + 1);
            k := !k + 2
          done)
        node_edges
    in
    iter_edges (fun a b ->
        if a <> b then
          if packet_of.(a) = packet_of.(b) && pos_of.(b) <= pos_of.(a) then
            incr relaxed
          else begin
            soft_out.(a) <- soft_out.(a) + 1;
            soft_in.(b) <- soft_in.(b) + 1;
            incr n_soft
          end);
    let soft_off = Array.make (n + 1) 0 in
    for id = 0 to n - 1 do
      soft_off.(id + 1) <- soft_off.(id) + soft_out.(id)
    done;
    let soft_adj = Array.make (max 1 !n_soft) 0 in
    let soft_fill = Array.make n 0 in
    iter_edges (fun a b ->
        if
          a <> b
          && not (packet_of.(a) = packet_of.(b) && pos_of.(b) <= pos_of.(a))
        then begin
          soft_adj.(soft_off.(a) + soft_fill.(a)) <- b;
          soft_fill.(a) <- soft_fill.(a) + 1
        end);
    (* ---- Anchor inheritance for unmatched items: nearest logged
       neighbour in their flow, following first (backward pass), then
       preceding (forward pass), else 0. ---- *)
    let carry = Array.make interner.n_pids Float.nan in
    for id = n - 1 downto 0 do
      let pid = packet_of.(id) in
      if Float.is_nan anchors.(id) then begin
        if not (Float.is_nan carry.(pid)) then anchors.(id) <- carry.(pid)
      end
      else carry.(pid) <- anchors.(id)
    done;
    Array.fill carry 0 (Array.length carry) Float.nan;
    for id = 0 to n - 1 do
      let pid = packet_of.(id) in
      if Float.is_nan anchors.(id) then
        anchors.(id) <-
          (if Float.is_nan carry.(pid) then 0. else carry.(pid))
      else carry.(pid) <- anchors.(id)
    done;
    (* ---- Deterministic Kahn's algorithm.  The main heap orders ready
       events by anchor (FIFO among equals); the stall heap indexes every
       event whose HARD prerequisites are met, keyed (anchor, id), so
       breaking a soft cycle is a pop instead of a full rescan.  Entries
       go stale when their event is emitted through the main heap — pops
       skip those lazily. ---- *)
    let module Pq = Prelude.Heap in
    let main = Pq.create ~capacity:(max 16 (n / 4)) () in
    let stall = Pq.create ~capacity:(max 16 (n / 4)) () in
    let emitted = Array.make n false in
    let emitted_count = ref 0 in
    let stalls = ref 0 in
    for id = 0 to n - 1 do
      if hard_in.(id) = 0 then begin
        Pq.push_tie stall ~priority:anchors.(id) ~tie:id id;
        if soft_in.(id) = 0 then Pq.push main ~priority:anchors.(id) id
      end
    done;
    let n_stall_prov = ref 0 in
    let n_carry_prov = ref 0 in
    let emit ?(stalled = false) id =
      emitted.(id) <- true;
      emit_item items.(id);
      (match emit_prov with
      | None -> ()
      | Some f ->
          let base = prov_of.(id) in
          let pv =
            if stalled then begin
              incr n_stall_prov;
              Provenance.with_mechanism Provenance.Stall_recovery base
            end
            else if
              (not items.(id).Engine.inferred) && not aligned.(id)
            then begin
              (* A logged event whose record never aligned with its node's
                 log: its global position was carried from a neighbour's
                 anchor, not evidenced by the log itself. *)
              incr n_carry_prov;
              Provenance.with_mechanism Provenance.Anchor_carry base
            end
            else base
          in
          f pv);
      incr emitted_count;
      (match hard_succ.(id) with
      | -1 -> ()
      | succ ->
          hard_in.(succ) <- hard_in.(succ) - 1;
          if hard_in.(succ) = 0 then begin
            Pq.push_tie stall ~priority:anchors.(succ) ~tie:succ succ;
            if soft_in.(succ) = 0 && not emitted.(succ) then
              Pq.push main ~priority:anchors.(succ) succ
          end);
      for k = soft_off.(id) to soft_off.(id + 1) - 1 do
        let succ = soft_adj.(k) in
        soft_in.(succ) <- soft_in.(succ) - 1;
        if hard_in.(succ) = 0 && soft_in.(succ) = 0 && not emitted.(succ)
        then Pq.push main ~priority:anchors.(succ) succ
      done
    in
    while !emitted_count < n do
      match Pq.pop main with
      | Some (_, id) -> if not emitted.(id) then emit id
      | None ->
          (* A cycle through soft edges: release the (anchor, id)-smallest
             event whose hard prerequisites are met by dropping its
             remaining soft in-edges.  Hard edges are per-packet chains
             (acyclic), so the stall heap always holds a live entry. *)
          let rec release () =
            match Pq.pop stall with
            | None -> assert false
            | Some (_, id) when emitted.(id) -> release ()
            | Some (_, id) ->
                relaxed := !relaxed + soft_in.(id);
                soft_in.(id) <- 0;
                incr stalls;
                emit ~stalled:true id
          in
          release ()
    done;
    let stats =
      {
        events = n;
        logged = !logged;
        inferred = n - !logged;
        relaxed = !relaxed;
      }
    in
    Par.with_obs_lock (fun () ->
        Obs.Metrics.Counter.inc ~by:n c_events;
        Obs.Metrics.Counter.inc ~by:!relaxed c_relaxed;
        Obs.Metrics.Counter.inc ~by:!stalls c_stalls;
        if !n_stall_prov > 0 then
          Obs.Metrics.Counter.inc ~by:!n_stall_prov c_prov_stall;
        if !n_carry_prov > 0 then
          Obs.Metrics.Counter.inc ~by:!n_carry_prov c_prov_carry);
    stats
  end

let merge_from ?jobs ?emit_prov source ~flows ~emit =
  let run () =
    let t0 = Obs.Span.now_us () in
    let stats = merge_untimed ?jobs ?emit_prov source ~flows ~emit in
    Par.with_obs_lock (fun () ->
        Obs.Metrics.Histogram.observe h_seconds
          ((Obs.Span.now_us () -. t0) /. 1e6));
    stats
  in
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.global_flow"
      ~attrs:[ ("flows", string_of_int (Array.length flows)) ]
      run
  else run ()

let merge ?jobs ?emit_prov collected ~flows ~emit =
  merge_from ?jobs ?emit_prov
    (Arena_index (Logsys.Collected.packets collected))
    ~flows ~emit

(* -- Incremental merge mode ------------------------------------------------ *)

(* The streaming pipeline never holds a [Collected] snapshot: records
   arrive in segments and flows are emitted at eviction time, in eviction
   order.  The accumulator rebuilds both batch inputs — an arena of every
   record in arrival order (each node's rows therefore in its write
   order, since any valid stream merge preserves it) and the flow array
   re-sorted to packet-key order (the order {!Reconstruct.run} emits) — so
   [finish] reproduces the batch merge exactly: same interner ids, same
   anchors, same heap tie-breaks. *)
module Incremental = struct
  type t = {
    arena : Logsys.Arena.t;
    mutable n_nodes : int;
    mutable flows_rev : Flow.t list;
  }

  let create ?(n_nodes = 1) () =
    { arena = Logsys.Arena.create (); n_nodes = max 1 n_nodes; flows_rev = [] }

  let add_arena t (s : Logsys.Arena.slice) =
    let a = s.Logsys.Arena.sl_base in
    for i = s.Logsys.Arena.sl_off to s.Logsys.Arena.sl_off + s.Logsys.Arena.sl_len - 1
    do
      let node = Logsys.Arena.node a i in
      if node >= 0 then begin
        if node >= t.n_nodes then t.n_nodes <- node + 1;
        Logsys.Arena.push_row t.arena ~node ~tag:(Logsys.Arena.tag a i)
          ~peer:(Logsys.Arena.peer a i) ~origin:(Logsys.Arena.origin a i)
          ~pkt_seq:(Logsys.Arena.pkt_seq a i)
          ~true_time:(Logsys.Arena.true_time a i) ~gseq:(Logsys.Arena.gseq a i)
      end
    done

  let add_records t records =
    add_arena t (Logsys.Arena.slice_all (Logsys.Arena.of_records records))

  let add_flow t flow = t.flows_rev <- flow :: t.flows_rev

  let finish ?jobs ?emit_prov t ~emit =
    let packets = Logsys.Arena.Packets.build t.arena ~n_nodes:t.n_nodes in
    (* Stable sort restores the batch emission order (key-ascending);
       duplicate keys — an evicted packet's late fragments — keep their
       eviction order, which is also their arrival order. *)
    let flows =
      Array.of_list
        (List.stable_sort
           (fun (a : Flow.t) (b : Flow.t) ->
             compare (a.origin, a.seq) (b.origin, b.seq))
           (List.rev t.flows_rev))
    in
    merge_from ?jobs ?emit_prov (Arena_index packets) ~flows ~emit
end
