(* The network-wide merge is the pipeline stage that sees every event at
   once (~1.4M items on the 30-day CitySee rung), so its data layout is
   flat and index-based throughout, with no hashing per item or per log
   row and no allocation per event beyond the handle it emits:

   - items are ids into flat arrays filled by one pass over the flows'
     packed items; packet identities ([pid]s) are interned once per flow;
   - hard edges (per-packet flow order) are consecutive chains, stored as
     a single-successor array;
   - the log alignment reads rows: every logged item of a reconstructed
     flow carries its record's row ({!Flow.row}), so each (packet, node)
     queue replays the greedy head-of-queue walk against that node's run
     of the packet's {!Logsys.Arena.Packets} rows with a cursor, comparing
     rows column by column — nothing is searched for by content;
   - soft edges (cross-packet node-log order) chain each node's matched
     items, one walk over the node logs; every item sits on one node, so
     soft edges are a single-successor array too;
   - Kahn's algorithm runs on two unboxed int heaps: the main one keyed
     (anchor, push sequence), the stall one (anchor, id) holding only
     events that became hard-ready with soft in-edges pending — O(log n)
     per stall release where the original implementation rescanned all n
     items per soft cycle.

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

(* Packet interning, per flow (not per item): flows sharing a key share a
   pid, which is what chains their items into one hard sequence. *)
let intern tbl ~origin ~seq =
  match Hashtbl.find_opt tbl (origin, seq) with
  | Some pid -> pid
  | None ->
      let pid = Hashtbl.length tbl in
      Hashtbl.add tbl (origin, seq) pid;
      pid

(* A binary min-heap of non-negative ints ordered by
   [(key.(e land id_mask), e)]: the element is an item id, optionally with
   a push sequence in the bits above [id_bits], so the lexicographic key
   needs no tuple and the heap no boxes.  Every id is pushed at most once,
   so capacity [n] never grows.  [pop] returns [-1] when empty. *)
let id_bits = 31

let id_mask = (1 lsl id_bits) - 1

module Int_heap = struct
  type t = { data : int array; mutable size : int; key : float array }

  let create key n = { data = Array.make n 0; size = 0; key }

  let before h a b =
    let ka = h.key.(a land id_mask) and kb = h.key.(b land id_mask) in
    ka < kb || (ka = kb && a < b)

  let push h e =
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && before h e h.data.((!i - 1) / 2) do
      h.data.(!i) <- h.data.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.data.(!i) <- e

  let pop h =
    if h.size = 0 then -1
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      let last = h.data.(h.size) and i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < h.size && before h h.data.(l + 1) h.data.(l) then l + 1
          else l
        in
        if c < h.size && before h h.data.(c) last then begin
          h.data.(!i) <- h.data.(c);
          i := c
        end
        else sifting := false
      done;
      h.data.(!i) <- last;
      top
    end
end

(* Where the merge reads per-node logs from: an arena-indexed packet
   index (columns; the alignment never materializes a record). *)
type log_source = Arena_index of Logsys.Arena.Packets.t

type event = { flow : Flow.t; pos : int }

let no_row = -1

let inferred_row = -2

let merge_untimed ?emit_prov (Arena_index packets) ~(flows : Flow.t array)
    ~emit:emit_event =
  let n = Array.fold_left (fun n f -> n + Flow.length f) 0 flows in
  if n = 0 then { events = 0; logged = 0; inferred = 0; relaxed = 0 }
  else begin
    let module Packets = Logsys.Arena.Packets in
    let module Arena = Logsys.Arena in
    let n_nodes = Packets.n_nodes packets in
    let arena = Packets.arena packets in
    let n_rows = Arena.length arena in
    let flow_of = Array.make n 0 in
    let packet_of = Array.make n 0 in
    let pos_of = Array.make n 0 in
    (* Per item: its row; [no_row] for a logged item without a valid one,
       [inferred_row] for an inferred item. *)
    let row_of = Array.make n inferred_row in
    let hard_succ = Array.make n (-1) in
    let hard_in = Array.make n 0 in
    let logged = ref 0 in
    (* Provenance side-cars, allocated only when the caller listens.  Each
       item's base provenance comes from its flow's side-car when the flows
       were reconstructed with provenance on; otherwise it is synthesized
       from the item alone (no evidence, lowest confidence for inferred). *)
    let want_prov = emit_prov <> None in
    let synth_prov f pos =
      let entered = Flow.entered f pos in
      if Flow.inferred f pos then
        Provenance.with_confidence Provenance.Low
          (Provenance.make2 Provenance.Intra_inference ~src:entered
             ~dst:entered ~e1:(-1) ~e2:(-1))
      else
        Provenance.make2 Provenance.Logged ~src:entered ~dst:entered ~e1:(-1)
          ~e2:(-1)
    in
    let prov_of =
      if want_prov then
        Array.make n
          (Provenance.make2 Provenance.Logged ~src:(-1) ~dst:(-1) ~e1:(-1)
             ~e2:(-1))
      else [||]
    in
    let aligned = if want_prov then Array.make n false else [||] in
    (* ---- Fill.  Ids are assigned in flow order, so each packet's hard
       chain is a run of consecutive ids, extended across flows that share
       a packet key; following [hard_succ] from a packet's first id walks
       its items in flow order. ---- *)
    let pids = Hashtbl.create (max 64 (Array.length flows)) in
    let flow_pid =
      Array.map (fun (f : Flow.t) -> intern pids ~origin:f.origin ~seq:f.seq) flows
    in
    let n_pids = Hashtbl.length pids in
    let first_of_pid = Array.make n_pids (-1) in
    let flow_of_pid = Array.make n_pids 0 in
    let last_of_pid = Array.make n_pids (-1) in
    Obs.Profile.with_stage ~name:"refill.global_flow.fill" (fun () ->
        let id = ref 0 in
        Array.iteri
          (fun fi (f : Flow.t) ->
            let pid = flow_pid.(fi) in
            for pos = 0 to Flow.length f - 1 do
              let id' = !id in
              incr id;
              flow_of.(id') <- fi;
              packet_of.(id') <- pid;
              pos_of.(id') <- pos;
              if want_prov then
                prov_of.(id') <-
                  (if pos < Array.length f.prov then f.prov.(pos)
                   else synth_prov f pos);
              if not (Flow.inferred f pos) then begin
                incr logged;
                let row = f.rows.(pos) in
                row_of.(id') <- (if row >= 0 && row < n_rows then row else no_row)
              end;
              let prev = last_of_pid.(pid) in
              if prev >= 0 then begin
                hard_succ.(prev) <- id';
                hard_in.(id') <- 1
              end
              else begin
                first_of_pid.(pid) <- id';
                flow_of_pid.(pid) <- fi
              end;
              last_of_pid.(pid) <- id'
            done)
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
        let run_pid = Array.make n_nodes (-1) in
        for pid = 0 to n_pids - 1 do
          let f = flows.(flow_of_pid.(pid)) in
          let rows = Packets.packet_rows packets ~origin:f.origin ~seq:f.seq in
          let len = Array.length rows in
          let i = ref 0 in
          while !i < len do
            let nd = Arena.node arena rows.(!i) in
            let j = ref (!i + 1) in
            while !j < len && Arena.node arena rows.(!j) = nd do
              incr j
            done;
            run_pid.(nd) <- pid;
            cursor.(nd) <- !i;
            run_end.(nd) <- !j;
            i := !j
          done;
          let id = ref first_of_pid.(pid) in
          while !id >= 0 do
            let row = row_of.(!id) in
            if row = no_row then begin
              let nd = Flow.node flows.(flow_of.(!id)) pos_of.(!id) in
              if nd >= 0 && nd < n_nodes && run_pid.(nd) = pid then
                cursor.(nd) <- run_end.(nd)
            end
            else if row >= 0 then begin
              let nd = Arena.node arena row in
              if run_pid.(nd) = pid then begin
                (* The own row is the usual first hit; only a skipped
                   row costs a column comparison. *)
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
                  matched_of_row.(rows.(!k)) <- !id;
                  cursor.(nd) <- !k + 1
                end
                else cursor.(nd) <- stop
              end
            end;
            id := hard_succ.(!id)
          done
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
    let soft_in = Array.make n 0 in
    let relaxed = ref 0 in
    Obs.Profile.with_stage ~name:"refill.global_flow.order" (fun () ->
        for node = 0 to n_nodes - 1 do
          let rows = Packets.node_rows packets node in
          let len = float_of_int (max 1 (Array.length rows)) in
          let last = ref (-1) in
          Array.iteri
            (fun log_idx row ->
              let b = matched_of_row.(row) in
              if b >= 0 then begin
                anchors.(b) <- float_of_int log_idx /. len;
                if want_prov then aligned.(b) <- true;
                let a = !last in
                if a >= 0 then
                  if packet_of.(a) = packet_of.(b) && pos_of.(b) <= pos_of.(a)
                  then incr relaxed
                  else begin
                    soft_succ.(a) <- b;
                    soft_in.(b) <- 1
                  end;
                last := b
              end)
            rows
        done;
        let carry = Array.make n_pids Float.nan in
        for id = n - 1 downto 0 do
          let pid = packet_of.(id) in
          if Float.is_nan anchors.(id) then begin
            if not (Float.is_nan carry.(pid)) then anchors.(id) <- carry.(pid)
          end
          else carry.(pid) <- anchors.(id)
        done;
        Array.fill carry 0 n_pids Float.nan;
        for id = 0 to n - 1 do
          let pid = packet_of.(id) in
          if Float.is_nan anchors.(id) then
            anchors.(id) <-
              (if Float.is_nan carry.(pid) then 0. else carry.(pid))
          else carry.(pid) <- anchors.(id)
        done);
    (* ---- Deterministic Kahn's algorithm.  The main heap orders ready
       events by (anchor, push sequence): FIFO among equal anchors.  An
       event that becomes hard-ready while soft in-edges are pending goes
       to the stall heap, keyed (anchor, id); when the main heap runs dry
       (a soft cycle) the smallest live stall entry is released by
       dropping its soft in-edges.  Every hard-ready, not yet emitted
       event is in the stall heap by then — any soft-ready one went
       through the main heap, which is always drained first — so the
       release is the (anchor, id)-smallest hard-ready event, exactly as
       a full rescan would pick.  Stall entries go stale when their event
       is emitted through the main heap; pops skip them lazily. ---- *)
    let n_stall_prov = ref 0 in
    let n_carry_prov = ref 0 in
    let stalls = ref 0 in
    Obs.Profile.with_stage ~name:"refill.global_flow.emit" (fun () ->
        let main = Int_heap.create anchors n in
        let stall = Int_heap.create anchors n in
        let pushes = ref 0 in
        let push_main id =
          Int_heap.push main ((!pushes lsl id_bits) lor id);
          incr pushes
        in
        let emitted = Array.make n false in
        let emitted_count = ref 0 in
        for id = 0 to n - 1 do
          if hard_in.(id) = 0 then
            if soft_in.(id) = 0 then push_main id else Int_heap.push stall id
        done;
        let emit ~stalled id =
          emitted.(id) <- true;
          let flow = flows.(flow_of.(id)) and pos = pos_of.(id) in
          emit_event { flow; pos };
          (match emit_prov with
          | None -> ()
          | Some f ->
              let base = prov_of.(id) in
              let pv =
                if stalled then begin
                  incr n_stall_prov;
                  Provenance.with_mechanism Provenance.Stall_recovery base
                end
                else if (not (Flow.inferred flow pos)) && not aligned.(id)
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
          let succ = hard_succ.(id) in
          if succ >= 0 then begin
            hard_in.(succ) <- 0;
            if soft_in.(succ) = 0 then push_main succ
            else Int_heap.push stall succ
          end;
          let succ = soft_succ.(id) in
          if succ >= 0 then begin
            soft_in.(succ) <- soft_in.(succ) - 1;
            if hard_in.(succ) = 0 && soft_in.(succ) = 0 && not emitted.(succ)
            then push_main succ
          end
        in
        while !emitted_count < n do
          match Int_heap.pop main with
          | -1 ->
              (* Hard edges are per-packet chains (acyclic), so the stall
                 heap always holds a live entry. *)
              let rec release () =
                match Int_heap.pop stall with
                | -1 -> assert false
                | id when emitted.(id) -> release ()
                | id ->
                    relaxed := !relaxed + soft_in.(id);
                    soft_in.(id) <- 0;
                    incr stalls;
                    emit ~stalled:true id
              in
              release ()
          | e ->
              let id = e land id_mask in
              if not emitted.(id) then emit ~stalled:false id
        done);
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

let merge_from ?emit_prov source ~flows ~emit =
  let run () =
    let t0 = Obs.Span.now_us () in
    let stats = merge_untimed ?emit_prov source ~flows ~emit in
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

  let add_flow t (flow : Flow.t) =
    let rows = Array.map (fun p -> if p < 1 then -1 else p - 1) flow.rows in
    t.flows_rev <- Flow.with_rows flow rows :: t.flows_rev

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
