(* The network-wide merge is the pipeline stage that sees every event at
   once (~1.4M items on the 30-day CitySee rung), so its data layout is
   flat and index-based throughout, with no hashing per item or per log
   row and no allocation per event beyond the handle it emits.  An item
   costs three words (its flow, anchor and soft successor) and a byte:

   - items are ids given out in flow order, so an item's position is its
     id minus its flow's first id, and its hard (same-packet) successor
     is the next id of its flow, else the first of the next non-empty
     flow of the same packet key, linked once per flow;
   - the log alignment reads rows: every logged item of a reconstructed
     flow carries its record's row ({!Flow.row}), so each (packet, node)
     queue replays the greedy head-of-queue walk against that node's run
     of the packet's {!Logsys.Arena.Packets} rows with a cursor, comparing
     rows column by column — nothing is searched for by content;
   - soft edges (cross-packet node-log order) chain each node's matched
     items, one walk over the node logs; every item sits on one node, so
     soft edges are a single-successor array too;
   - no in-degree exceeds one, so an item's pending in-edges are bits of
     its flag byte, beside emitted and aligned;
   - Kahn's algorithm runs on two unboxed heaps that keep each entry's
     anchor beside it: the main one keyed (anchor, push sequence), the
     stall one (anchor, id) holding only events that became hard-ready
     with soft in-edges pending — O(log n) per stall release where the
     original implementation rescanned all n items per soft cycle.

   The emission order is bit-identical to the straightforward
   list-and-hashtable implementation this replaced (the test suite keeps a
   copy of it as an oracle): the alignment matches each (packet, node)
   queue against the same log rows in the same order, the main heap
   receives the same pushes in the same sequence, and the stall heap's
   [(anchor, id)] key reproduces the old linear scan's
   smallest-anchor-then-smallest-id choice.  Both keys are strict total
   orders, so the pop sequence does not depend on heap internals.  An
   item without a row (a hand-built flow) is never matched: it takes a
   neighbour's anchor, and its provenance says so ([Anchor_carry]). *)

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

(* A binary min-heap of non-negative ints ordered by [(key, element)],
   each kept beside its float key, so a sift reads only the heap's own
   arrays.  The element is an item id, optionally with a push sequence in
   the bits above [id_bits], so the heap needs no tuple and no box.  It
   starts small and doubles.  [pop] returns [-1] when empty.  [park]
   keeps an entry past the heap's end, unordered; [pop_kept] pushes the
   parked entries [keep] accepts, drops the rest, then pops until an
   entry [keep] accepts.  A heap that parks is popped only by [pop_kept]
   and pushed only by [park]. *)
let id_bits = 31

let id_mask = (1 lsl id_bits) - 1

module Keyed_heap = struct
  type t = {
    mutable keys : float array;
    mutable elts : int array;
    mutable size : int;
    mutable parked : int;
  }

  let create () =
    { keys = Array.make 512 0.; elts = Array.make 512 0; size = 0; parked = 0 }

  let[@inline] before (ka : float) (a : int) kb b =
    ka < kb || (ka = kb && a < b)

  let[@inline] reserve h =
    if h.size + h.parked = Array.length h.elts then begin
      h.keys <- Array.append h.keys h.keys;
      h.elts <- Array.append h.elts h.elts
    end

  let[@inline] push h key e =
    reserve h;
    let keys = h.keys and elts = h.elts and i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && before key e keys.((!i - 1) / 2) elts.((!i - 1) / 2) do
      keys.(!i) <- keys.((!i - 1) / 2);
      elts.(!i) <- elts.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    keys.(!i) <- key;
    elts.(!i) <- e

  let pop h =
    if h.size = 0 then -1
    else begin
      let keys = h.keys and elts = h.elts and size = h.size - 1 in
      let top = elts.(0) and key = keys.(size) and e = elts.(size) in
      h.size <- size;
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < size && before keys.(l + 1) elts.(l + 1) keys.(l) elts.(l)
          then l + 1
          else l
        in
        if c < size && before keys.(c) elts.(c) key e then begin
          keys.(!i) <- keys.(c);
          elts.(!i) <- elts.(c);
          i := c
        end
        else sifting := false
      done;
      keys.(!i) <- key;
      elts.(!i) <- e;
      top
    end

  let park h key e =
    reserve h;
    h.keys.(h.size + h.parked) <- key;
    h.elts.(h.size + h.parked) <- e;
    h.parked <- h.parked + 1

  let rec pop_kept h keep =
    let stop = h.size + h.parked in
    h.parked <- 0;
    for j = h.size to stop - 1 do
      if keep h.elts.(j) then push h h.keys.(j) h.elts.(j)
    done;
    let e = pop h in
    if e < 0 || keep e then e else pop_kept h keep
end

(* The flag byte's bits: the item waits on its hard predecessor, waits on
   its soft predecessor, was emitted, was aligned with its node's log. *)
let hard_wait = 1 and soft_wait = 2 and emitted = 4 and aligned = 8

let[@inline] flag flags id = Char.code (Bytes.get flags id)

let[@inline] set_flag flags id v = Bytes.set flags id (Char.unsafe_chr v)

(* Where the merge reads per-node logs from: an arena-indexed packet
   index (columns; the alignment never materializes a record). *)
type log_source = Arena_index of Logsys.Arena.Packets.t

type event = { flow : Flow.t; pos : int }

let merge_untimed ?emit_prov (Arena_index packets) ~(flows : Flow.t array)
    ~emit:emit_event =
  let n_flows = Array.length flows in
  (* Ids are given out in flow order: flow [fi]'s items are the ids from
     [start.(fi)] to [start.(fi + 1) - 1]. *)
  let start = Array.make (n_flows + 1) 0 in
  Array.iteri
    (fun fi f -> start.(fi + 1) <- start.(fi) + Flow.length f)
    flows;
  let n = start.(n_flows) in
  if n = 0 then { events = 0; logged = 0; inferred = 0; relaxed = 0 }
  else begin
    let module Packets = Logsys.Arena.Packets in
    let module Arena = Logsys.Arena in
    let n_nodes = Packets.n_nodes packets in
    let arena = Packets.arena packets in
    let n_rows = Arena.length arena in
    let inferred_bit = Flow.inferred_bit in
    let flow_of = Array.make n 0 in
    let flags = Bytes.make n '\000' in
    let logged = ref 0 in
    (* An item's base provenance: its flow's side-car entry, else one
       synthesized from the item alone (no evidence; lowest confidence
       when inferred). *)
    let base_prov (f : Flow.t) pos =
      if pos < Array.length f.prov then f.prov.(pos)
      else
        let src = Flow.entered f pos in
        if f.codes.(pos) land inferred_bit <> 0 then
          Provenance.with_confidence Low
            (Provenance.make2 Intra_inference ~src ~dst:src ~e1:(-1) ~e2:(-1))
        else Provenance.make2 Logged ~src ~dst:src ~e1:(-1) ~e2:(-1)
    in
    (* ---- Fill.  Each packet's items form one hard chain: its flows' ids
       in flow order, each non-empty flow linked to the first id of the
       next one of the same packet key ([next_id], else [-1]) and named by
       the chain's first flow ([chain], [-1] for an empty flow).  Every
       item but a chain's first waits on its hard predecessor. ---- *)
    let next_id = Array.make n_flows (-1) in
    let chain = Array.make n_flows (-1) in
    Obs.Profile.with_stage ~name:"refill.global_flow.fill" (fun () ->
        let last_flow = Logsys.Keys.create ~size:n_flows (-1) in
        Array.iteri
          (fun fi (f : Flow.t) ->
            let first = start.(fi) and len = Array.length f.codes in
            if len > 0 then begin
              Array.fill flow_of first len fi;
              Bytes.fill flags first len (Char.chr hard_wait);
              (match Logsys.Keys.find last_flow f.origin f.seq with
              | -1 ->
                  chain.(fi) <- fi;
                  set_flag flags first 0;
                  Logsys.Keys.add last_flow f.origin f.seq fi
              | slot ->
                  let prev = Logsys.Keys.value last_flow slot in
                  next_id.(prev) <- first;
                  chain.(fi) <- chain.(prev);
                  Logsys.Keys.replace last_flow f.origin f.seq fi)
            end)
          flows);
    (* ---- Alignment: the greedy head-of-queue match of every
       (packet, node) queue against that node's rows of the packet, in
       log order.  The queue is the packet's logged items on the node, in
       flow order; a cursor walks the node's run of [packet_rows].  An
       item matches the first row at or after the cursor that is
       column-equal to its own row, and the cursor moves past the match;
       when no such row is left, the run is exhausted and the rest of the
       queue stays unmatched.  An item's own row is in the run, so the
       search ends there at the latest unless the cursor has passed it —
       which happens when a prerequisite drive emitted a node's later
       record before an earlier one.  Matching on the own row alone would
       then match that earlier record too, where the walk leaves it and
       the rest of its queue unmatched, and anchors would move.  A logged
       item without a row names no record of the index, so, like an item
       whose record is not found, it exhausts its node's run (a record
       restored from a stream checkpoint is one). ---- *)
    let matched_of_row = Array.make n_rows (-1) in
    Obs.Profile.with_stage ~name:"refill.global_flow.align" (fun () ->
        let cursor = Array.make n_nodes 0 in
        let run_end = Array.make n_nodes 0 in
        (* The chain whose packet a node's run holds. *)
        let run_head = Array.make n_nodes (-1) in
        for head = 0 to n_flows - 1 do
          if chain.(head) = head then begin
            let ({ origin; seq; _ } : Flow.t) = flows.(head) in
            let rows = Packets.packet_rows packets ~origin ~seq in
            let len = Array.length rows in
            let i = ref 0 in
            while !i < len do
              let nd = Arena.node arena rows.(!i) in
              let j = ref (!i + 1) in
              while !j < len && Arena.node arena rows.(!j) = nd do
                incr j
              done;
              run_head.(nd) <- head;
              cursor.(nd) <- !i;
              run_end.(nd) <- !j;
              i := !j
            done;
            let fi = ref head in
            while !fi >= 0 do
              let ({ codes; rows = own; nodes; _ } : Flow.t) = flows.(!fi) in
              for pos = 0 to Array.length codes - 1 do
                if codes.(pos) land inferred_bit = 0 then begin
                  incr logged;
                  let row = own.(pos) in
                  if row >= 0 && row < n_rows then begin
                    let nd = Arena.node arena row in
                    if run_head.(nd) = head then begin
                      (* The own row is the usual first hit; only a
                         skipped row costs a column comparison. *)
                      let k = ref cursor.(nd) and stop = run_end.(nd) in
                      while
                        !k < stop
                        &&
                        let r = rows.(!k) in
                        r <> row && not (Arena.equal_rows arena r row)
                      do
                        incr k
                      done;
                      if !k < stop then begin
                        matched_of_row.(rows.(!k)) <- start.(!fi) + pos;
                        cursor.(nd) <- !k + 1
                      end
                      else cursor.(nd) <- stop
                    end
                  end
                  else begin
                    let nd = nodes.(pos) in
                    if nd >= 0 && nd < n_nodes && run_head.(nd) = head then
                      cursor.(nd) <- run_end.(nd)
                  end
                end
              done;
              fi := if next_id.(!fi) < 0 then -1 else flow_of.(next_id.(!fi))
            done
          end
        done);
    (* ---- Order: one walk over every node's log, in log order, fixes
       each matched item's anchor (its log-position fraction) and chains
       it to the node's previous match.  Each item sits on one node, so
       soft edges have in- and out-degree at most one.  A soft edge
       opposing a hard (same-packet) path is a concurrent pair whose
       linearization chose the other interleaving: dropped and counted,
       not an error.  Unmatched items then inherit the anchor of the
       nearest matched neighbour in their flow, following first (backward
       pass), then preceding (forward pass), else 0. ---- *)
    let anchors = Array.make n Float.nan in
    let soft_succ = Array.make n (-1) in
    let relaxed = ref 0 in
    Obs.Profile.with_stage ~name:"refill.global_flow.order" (fun () ->
        for node = 0 to n_nodes - 1 do
          let rows = Packets.node_rows packets node in
          let len = float_of_int (max 1 (Array.length rows)) in
          let last = ref (-1) in
          for log_idx = 0 to Array.length rows - 1 do
            let b = matched_of_row.(rows.(log_idx)) in
            if b >= 0 then begin
              anchors.(b) <- float_of_int log_idx /. len;
              set_flag flags b (flag flags b lor aligned);
              let a = !last in
              if a >= 0 then begin
                let fa = flow_of.(a) and fb = flow_of.(b) in
                if chain.(fa) = chain.(fb) && b - start.(fb) <= a - start.(fa)
                then incr relaxed
                else begin
                  soft_succ.(a) <- b;
                  set_flag flags b (flag flags b lor soft_wait)
                end
              end;
              last := b
            end
          done
        done;
        let carry = Array.make n_flows Float.nan in
        for id = n - 1 downto 0 do
          let c = chain.(flow_of.(id)) in
          if Float.is_nan anchors.(id) then anchors.(id) <- carry.(c)
          else carry.(c) <- anchors.(id)
        done;
        Array.fill carry 0 n_flows 0.;
        for id = 0 to n - 1 do
          let c = chain.(flow_of.(id)) in
          if Float.is_nan anchors.(id) then anchors.(id) <- carry.(c)
          else carry.(c) <- anchors.(id)
        done);
    (* ---- Deterministic Kahn's algorithm.  The main heap orders ready
       events by (anchor, push sequence): FIFO among equal anchors.  An
       event that becomes hard-ready while soft in-edges are pending is
       parked in the stall heap, keyed (anchor, id); when the main heap
       runs dry (a soft cycle) the parked events not yet emitted are
       ordered, and the smallest live stall entry is released by dropping
       its soft in-edges.  Every hard-ready, not yet emitted event is in
       the stall heap by then — any soft-ready one went through the main
       heap, which is always drained first — so the release is the
       (anchor, id)-smallest hard-ready event, exactly as a full rescan
       would pick.  Most parked events are emitted through the main heap
       before the next stall and never ordered; an entry that goes stale
       once ordered is skipped lazily. ---- *)
    let n_stall_prov = ref 0 and n_carry_prov = ref 0 and stalls = ref 0 in
    Obs.Profile.with_stage ~name:"refill.global_flow.emit" (fun () ->
        let main = Keyed_heap.create () and stall = Keyed_heap.create () in
        let pushes = ref 0 in
        let push_main id =
          Keyed_heap.push main anchors.(id) ((!pushes lsl id_bits) lor id);
          incr pushes
        in
        let push_stall id = Keyed_heap.park stall anchors.(id) id in
        let live id = flag flags id land emitted = 0 in
        let emitted_count = ref 0 in
        for id = 0 to n - 1 do
          let fl = flag flags id in
          if fl land hard_wait = 0 then
            if fl land soft_wait = 0 then push_main id else push_stall id
        done;
        let emit ~stalled id =
          set_flag flags id (flag flags id lor emitted);
          let fi = flow_of.(id) in
          let flow = flows.(fi) and pos = id - start.(fi) in
          emit_event { flow; pos };
          (match emit_prov with
          | None -> ()
          | Some f ->
              let base = base_prov flow pos in
              let pv =
                if stalled then begin
                  incr n_stall_prov;
                  Provenance.with_mechanism Provenance.Stall_recovery base
                end
                else if
                  flow.codes.(pos) land inferred_bit = 0
                  && flag flags id land aligned = 0
                then begin
                  (* A logged event whose record never aligned with its
                     node's log: its global position was carried from a
                     neighbour's anchor, not evidenced by the log itself. *)
                  incr n_carry_prov;
                  Provenance.with_mechanism Provenance.Anchor_carry base
                end
                else base
              in
              f pv);
          incr emitted_count;
          let succ = if id + 1 < start.(fi + 1) then id + 1 else next_id.(fi) in
          if succ >= 0 then begin
            let fl = flag flags succ land lnot hard_wait in
            set_flag flags succ fl;
            if fl land soft_wait = 0 then push_main succ else push_stall succ
          end;
          let succ = soft_succ.(id) in
          if succ >= 0 then begin
            let fl = flag flags succ land lnot soft_wait in
            set_flag flags succ fl;
            if fl land (hard_wait lor emitted) = 0 then push_main succ
          end
        in
        while !emitted_count < n do
          match Keyed_heap.pop main with
          | -1 ->
              (* Hard edges are per-packet chains (acyclic), so the stall
                 heap always holds a live entry, and it still waits on its
                 soft predecessor (else it went through the main heap):
                 that edge is dropped. *)
              incr relaxed;
              incr stalls;
              emit ~stalled:true (Keyed_heap.pop_kept stall live)
          | e ->
              let id = e land id_mask in
              if flag flags id land emitted = 0 then emit ~stalled:false id
        done);
    Obs.Metrics.Counter.inc ~by:n c_events;
    Obs.Metrics.Counter.inc ~by:!relaxed c_relaxed;
    Obs.Metrics.Counter.inc ~by:!stalls c_stalls;
    if !n_stall_prov > 0 then
      Obs.Metrics.Counter.inc ~by:!n_stall_prov c_prov_stall;
    if !n_carry_prov > 0 then
      Obs.Metrics.Counter.inc ~by:!n_carry_prov c_prov_carry;
    { events = n; logged = !logged; inferred = n - !logged; relaxed = !relaxed }
  end

let merge_from ?emit_prov source ~flows ~emit =
  let run () =
    let t0 = Obs.Span.now_us () in
    let stats = merge_untimed ?emit_prov source ~flows ~emit in
    Obs.Metrics.Histogram.observe h_seconds
      ((Obs.Span.now_us () -. t0) /. 1e6);
    stats
  in
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.global_flow"
      ~attrs:[ ("flows", string_of_int (Array.length flows)) ]
      run
  else run ()

let merge ?emit_prov collected ~flows ~emit =
  merge_from ?emit_prov
    (Arena_index (Logsys.Collected.packets collected))
    ~flows ~emit

(* -- Incremental merge mode ------------------------------------------------ *)

(* The streaming pipeline never holds a [Collected] snapshot: records
   arrive in segments and flows are emitted at eviction time, in eviction
   order.  The accumulator rebuilds both batch inputs — an arena of every
   record in arrival order (each node's rows therefore in its write
   order, since any valid stream merge preserves it) and the flow array
   re-sorted to packet-key order (the order {!Reconstruct.run} emits) — so
   [finish] reproduces the batch merge exactly: same item ids, same
   anchors, same heap tie-breaks.  A stream flow's rows are global stream
   positions, counted from 1 over exactly the rows this arena appends
   (node >= 0), so position [p] is arena row [p - 1]. *)
module Incremental = struct
  type t = {
    arena : Logsys.Arena.t;
    mutable n_nodes : int;
    mutable flows_rev : Flow.t list;
  }

  let create ?(n_nodes = 1) () =
    { arena = Logsys.Arena.create (); n_nodes = max 1 n_nodes; flows_rev = [] }

  let add_arena t ({ sl_base = a; sl_off; sl_len } : Logsys.Arena.slice) =
    for i = sl_off to sl_off + sl_len - 1 do
      let node = Logsys.Arena.node a i in
      if node >= 0 then begin
        if node >= t.n_nodes then t.n_nodes <- node + 1;
        Logsys.Arena.copy_row a i t.arena (Logsys.Arena.length t.arena)
      end
    done

  let add_records t records =
    add_arena t (Logsys.Arena.slice_all (Logsys.Arena.of_records records))

  let add_flow t (flow : Flow.t) =
    let rows = Array.map (fun p -> if p < 1 then -1 else p - 1) flow.rows in
    t.flows_rev <- Flow.with_rows flow ~arena:t.arena rows :: t.flows_rev

  let finish ?emit_prov t ~emit =
    let packets = Logsys.Arena.Packets.build t.arena ~n_nodes:t.n_nodes in
    (* Stable sort restores the batch emission order (key-ascending);
       duplicate keys — an evicted packet's late fragments — keep their
       eviction order, which is also their arrival order. *)
    let flows = Array.of_list (List.rev t.flows_rev) in
    Array.stable_sort
      (fun (a : Flow.t) (b : Flow.t) ->
        let c = Int.compare a.origin b.origin in
        if c <> 0 then c else Int.compare a.seq b.seq)
      flows;
    merge_from ?emit_prov (Arena_index packets) ~flows ~emit
end
