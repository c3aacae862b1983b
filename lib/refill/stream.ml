module Obs = Refill_obs

let c_events =
  Obs.Metrics.Counter.v "refill_stream_events_total"
    ~help:"Records consumed by streaming reconstruction."

let c_segments =
  Obs.Metrics.Counter.v "refill_stream_segments_total"
    ~help:"Segments fed to streaming reconstruction."

let c_flows =
  Obs.Metrics.Counter.v "refill_stream_flows_total"
    ~help:"Flows emitted by streaming reconstruction."

let c_evictions =
  Obs.Metrics.Counter.v "refill_stream_evictions_total"
    ~help:"Packets evicted from the frontier by the watermark."

let c_incomplete =
  Obs.Metrics.Counter.v "refill_stream_incomplete_flows_total"
    ~help:"Flows emitted with the Incomplete outcome."

let c_forgotten =
  Obs.Metrics.Counter.v "refill_stream_forgotten_keys_total"
    ~help:"Evicted packet keys forgotten after the late-fragment retention window."

let g_frontier =
  Obs.Metrics.Gauge.v "refill_stream_frontier_events"
    ~help:"Records currently buffered in the streaming frontier."

let g_peak =
  Obs.Metrics.Gauge.v "refill_stream_peak_frontier_events"
    ~help:"High-water mark of buffered records in the streaming frontier."

type outcome = Complete | Incomplete

type emitted = { flow : Flow.t; outcome : outcome; cause : Logsys.Cause.t }

type summary = {
  events : int;
  segments : int;
  flows : int;
  complete : int;
  incomplete : int;
  evictions : int;
  late_fragments : int;
  forgotten_keys : int;
  frontier_events : int;
  peak_frontier_events : int;
}

(* -- One shard's frontier -------------------------------------------------- *)

module Keys = Logsys.Keys

(* One open packet.  Its records are rows of its shard's store, chained
   in arrival order from [head] to [tail]; [last_seen] is the global
   stream position of the newest.  [older] and [newer] link the shard's
   last-seen list. *)
type buffer = {
  b_origin : int;
  b_seq : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable last_seen : int;
  b_late : bool;
  mutable older : buffer;
  mutable newer : buffer;
}

let compare_key (ao, as_) (bo, bs) =
  match Int.compare ao bo with 0 -> Int.compare as_ bs | c -> c

(* Evicted-table entries, ordered by eviction trigger then key. *)
let compare_evicted (ka, ta) (kb, tb) =
  match Int.compare ta tb with 0 -> compare_key ka kb | c -> c

(* A flow evicted in the current round, not yet emitted. *)
type pending = { p_last_seen : int; p_key : int * int; p_emitted : emitted }

(* (trigger, origin, seq) triples in a circular int array that doubles
   when full. *)
type ring = {
  mutable cells : int array;
  mutable first : int;
  mutable len : int;
}

let ring_capacity r = Array.length r.cells / 3

let ring_push r trigger origin seq =
  let cap = ring_capacity r in
  if r.len = cap then begin
    let cells = Array.make (3 * max 64 (2 * cap)) 0 in
    for k = 0 to r.len - 1 do
      Array.blit r.cells (3 * ((r.first + k) mod cap)) cells (3 * k) 3
    done;
    r.cells <- cells;
    r.first <- 0
  end;
  let at = 3 * ((r.first + r.len) mod ring_capacity r) in
  r.cells.(at) <- trigger;
  r.cells.(at + 1) <- origin;
  r.cells.(at + 2) <- seq;
  r.len <- r.len + 1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A piece of a shard's row store: [chunk_rows] rows of arena columns,
   each with its global stream position (-1 for a row restored from a
   checkpoint) and the next row of its chain (-1 at the end).  Every
   column is an uninitialized 128 KiB Bigarray, which the allocator maps
   on its own, so a page of it costs memory only once a row on it is
   written. *)
type chunk = { c_rows : Logsys.Arena.t; c_positions : ints; c_links : ints }

let chunk_bits = 14
let chunk_rows = 1 lsl chunk_bits
let chunk_mask = chunk_rows - 1

let new_chunk () =
  let ints () =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk_rows
  in
  {
    c_rows = Logsys.Arena.create ~capacity:chunk_rows ();
    c_positions = ints ();
    c_links = ints ();
  }

(* The frontier of the packet keys that hash to one shard.  It ingests
   only its own keys but hears every global stream position, so it
   evicts exactly where a frontier holding every key would. *)
type shard = {
  index : int;  (* this shard's number among [n_shards] *)
  n_shards : int;
  sink : int;
  use_intra : bool;
  use_inter : bool;
  provenance : bool;
  watermark : int;
  retention : int;
  frontier : buffer Keys.t;
  (* key -> eviction trigger (the global position [last_seen + watermark]
     at which the key was evicted).  Bounded: a key is forgotten once the
     clock passes [trigger + retention]. *)
  evicted : int Keys.t;
  (* The sentinel of the last-seen list, which holds every open buffer
     ascending by [last_seen]: [seen.newer] is the oldest, [seen.older]
     the newest, and the list is empty when they are [seen] itself. *)
  seen : buffer;
  (* Every [evicted] entry's (trigger, key) in eviction order; an entry
     is stale, and skipped when popped, once its key is re-evicted with a
     newer trigger or forgotten on re-arrival. *)
  prune : ring;
  (* The buffered records.  Row [r] is row [r land chunk_mask] of
     [chunks.(r lsr chunk_bits)]; chunks never move, so the store grows a
     chunk at a time without copying or leaving garbage.  [made] rows
     exist; those of evicted packets are chained from [free] for later
     arrivals. *)
  mutable chunks : chunk array;
  (* An evicted packet's rows in arrival order, as {!Reconstruct.of_columns}
     reads them: node, kind tag, peer, and global stream position. *)
  mutable ev_nodes : int array;
  mutable ev_tags : int array;
  mutable ev_peers : int array;
  mutable ev_positions : int array;
  mutable made : int;
  mutable free : int;
  mutable pending : pending list;  (* this round's evictions, newest first *)
  mutable clock : int;  (* global stream position this shard has heard *)
  mutable processed : int;  (* records this shard ingested *)
  mutable flows : int;
  mutable complete : int;
  mutable incomplete : int;
  mutable evictions : int;
  mutable late_fragments : int;
  mutable forgotten : int;
  mutable frontier_events : int;
  mutable peak_frontier_events : int;
}

let make_shard ~index ~n_shards ~flags:(use_intra, use_inter, provenance)
    ~watermark ~retention ~sink =
  let rec seen =
    {
      b_origin = 0;
      b_seq = 0;
      head = -1;
      tail = -1;
      count = 0;
      last_seen = 0;
      b_late = false;
      older = seen;
      newer = seen;
    }
  in
  {
    index;
    n_shards;
    sink;
    use_intra;
    use_inter;
    provenance;
    watermark;
    retention;
    frontier = Keys.create seen;
    evicted = Keys.create 0;
    seen;
    prune = { cells = [||]; first = 0; len = 0 };
    (* The first chunk comes with the shard, made on the caller's domain:
       made later on a worker's, it cost serve more peak memory. *)
    chunks = [| new_chunk () |];
    ev_nodes = [||];
    ev_tags = [||];
    ev_peers = [||];
    ev_positions = [||];
    made = 0;
    free = -1;
    pending = [];
    clock = 0;
    processed = 0;
    flows = 0;
    complete = 0;
    incomplete = 0;
    evictions = 0;
    late_fragments = 0;
    forgotten = 0;
    frontier_events = 0;
    peak_frontier_events = 0;
  }

let counters sh =
  {
    events = sh.processed;
    segments = 0;
    flows = sh.flows;
    complete = sh.complete;
    incomplete = sh.incomplete;
    evictions = sh.evictions;
    late_fragments = sh.late_fragments;
    forgotten_keys = sh.forgotten;
    frontier_events = sh.frontier_events;
    peak_frontier_events = sh.peak_frontier_events;
  }

(* Batched per feed/finish call, like the engine does per run; counter
   deltas sum correctly across shards. *)
let flush_metrics sh (before : summary) =
  let after = counters sh in
  let d get = get after - get before in
  let inc c by = if by > 0 then Obs.Metrics.Counter.inc ~by c in
  inc c_events (d (fun s -> s.events));
  inc c_flows (d (fun s -> s.flows));
  inc c_evictions (d (fun s -> s.evictions));
  inc c_incomplete (d (fun s -> s.incomplete));
  inc c_forgotten (d (fun s -> s.forgotten_keys))

(* -- The row store and the last-seen list ---------------------------------- *)

let chunk_of sh row = sh.chunks.(row lsr chunk_bits)

let link sh row =
  Bigarray.Array1.get (chunk_of sh row).c_links (row land chunk_mask)

let set_link sh row next =
  Bigarray.Array1.set (chunk_of sh row).c_links (row land chunk_mask) next

let row_record sh row =
  Logsys.Arena.get (chunk_of sh row).c_rows (row land chunk_mask)

let unlink b =
  b.older.newer <- b.newer;
  b.newer.older <- b.older

let append_newest sh b =
  let s = sh.seen in
  b.older <- s.older;
  b.newer <- s;
  s.older.newer <- b;
  s.older <- b

(* A new, empty buffer for a packet: in the frontier table, and newest in
   the last-seen list. *)
let open_buffer sh ~origin ~seq ~late =
  let b =
    {
      b_origin = origin;
      b_seq = seq;
      head = -1;
      tail = -1;
      count = 0;
      last_seen = 0;
      b_late = late;
      older = sh.seen;
      newer = sh.seen;
    }
  in
  Keys.add sh.frontier origin seq b;
  append_newest sh b;
  b

(* Copy row [i] of [src] to the end of [b]'s chain, at global position
   [pos], in a free row of the store or a new one. *)
let append_row sh b src i pos =
  let row =
    if sh.free >= 0 then begin
      let row = sh.free in
      sh.free <- link sh row;
      row
    end
    else begin
      let row = sh.made in
      if row lsr chunk_bits = Array.length sh.chunks then
        sh.chunks <- Array.append sh.chunks [| new_chunk () |];
      sh.made <- row + 1;
      row
    end
  in
  let c = chunk_of sh row and k = row land chunk_mask in
  Logsys.Arena.copy_row src i c.c_rows k;
  Bigarray.Array1.set c.c_positions k pos;
  Bigarray.Array1.set c.c_links k (-1);
  if b.count = 0 then b.head <- row else set_link sh b.tail row;
  b.tail <- row;
  b.count <- b.count + 1

let evict sh ~final buf =
  Keys.remove sh.frontier (Keys.find sh.frontier buf.b_origin buf.b_seq);
  unlink buf;
  if not final then begin
    (* The trigger is the canonical eviction position — a function of the
       buffer alone, not of how far this shard's clock had jumped when
       drain caught it, so forgetting behaves identically at any shard
       count.  [last_seen + watermark <= clock] here, so no overflow. *)
    let trigger = buf.last_seen + sh.watermark in
    Keys.replace sh.evicted buf.b_origin buf.b_seq trigger;
    ring_push sh.prune trigger buf.b_origin buf.b_seq;
    sh.evictions <- sh.evictions + 1
  end;
  sh.frontier_events <- sh.frontier_events - buf.count;
  (* Walk the chain once, reading each row's node, tag, peer and position
     in arrival order (the kernel restores node-scan order, and each
     position becomes its logged item's row).  Then the chain joins the
     free rows. *)
  let n = buf.count in
  if Array.length sh.ev_nodes < n then begin
    let cap = max n (2 * Array.length sh.ev_nodes) in
    sh.ev_nodes <- Array.make cap 0;
    sh.ev_tags <- Array.make cap 0;
    sh.ev_peers <- Array.make cap 0;
    sh.ev_positions <- Array.make cap 0
  end;
  let row = ref buf.head in
  for k = 0 to n - 1 do
    let c = chunk_of sh !row and j = !row land chunk_mask in
    sh.ev_nodes.(k) <- Logsys.Arena.node c.c_rows j;
    sh.ev_tags.(k) <- Logsys.Arena.tag c.c_rows j;
    sh.ev_peers.(k) <- Logsys.Arena.peer c.c_rows j;
    sh.ev_positions.(k) <- Bigarray.Array1.get c.c_positions j;
    row := Bigarray.Array1.get c.c_links j
  done;
  set_link sh buf.tail sh.free;
  sh.free <- buf.head;
  let flow =
    Reconstruct.of_columns ~use_intra:sh.use_intra ~use_inter:sh.use_inter
      ~provenance:sh.provenance ~nodes:sh.ev_nodes ~tags:sh.ev_tags
      ~peers:sh.ev_peers ~ids:sh.ev_positions n ~origin:buf.b_origin
      ~seq:buf.b_seq ~sink:sh.sink
  in
  let cause = (Classify.classify flow).cause in
  let outcome =
    if buf.b_late then Incomplete
    else if final || cause <> Logsys.Cause.Unknown then Complete
    else Incomplete
  in
  sh.flows <- sh.flows + 1;
  (match outcome with
  | Complete -> sh.complete <- sh.complete + 1
  | Incomplete -> sh.incomplete <- sh.incomplete + 1);
  sh.pending <-
    {
      p_last_seen = buf.last_seen;
      p_key = (buf.b_origin, buf.b_seq);
      p_emitted = { flow; outcome; cause };
    }
    :: sh.pending

(* Forget the key of the prune ring's oldest entry, unless the entry is
   stale. *)
let forget_oldest sh =
  let r = sh.prune in
  let at = 3 * r.first in
  let trigger = r.cells.(at) in
  let i = Keys.find sh.evicted r.cells.(at + 1) r.cells.(at + 2) in
  r.first <- (r.first + 1) mod ring_capacity r;
  r.len <- r.len - 1;
  if i >= 0 && Keys.value sh.evicted i = trigger then begin
    Keys.remove sh.evicted i;
    sh.forgotten <- sh.forgotten + 1
  end

(* Evict every buffer quiet for [watermark] positions and forget every
   evicted key past its retention, in the order of the positions where
   they fall due — [last_seen + watermark] and [trigger + retention],
   an eviction first on a tie — which is the order a one-shard stream,
   whose clock moves one position at a time, meets them.  A shard whose
   clock jumps would otherwise re-evict a late fragment's key before
   forgetting its earlier eviction, and skip that as stale.  The
   comparisons are rearranged so that no sum can overflow. *)
let drain sh =
  let limit = sh.clock - sh.watermark and flimit = sh.clock - sh.retention in
  let r = sh.prune in
  let continue = ref true in
  while !continue do
    let oldest = sh.seen.newer in
    let evict_due = oldest != sh.seen && oldest.last_seen <= limit in
    let forget_due = r.len > 0 && r.cells.(3 * r.first) <= flimit in
    if
      evict_due
      && ((not forget_due)
         || oldest.last_seen - r.cells.(3 * r.first)
            <= sh.retention - sh.watermark)
    then evict sh ~final:false oldest
    else if forget_due then forget_oldest sh
    else continue := false
  done

(* Ingest row [i] of [a] at global stream position [pos].  The frontier
   must first be drained to [pos - 1] — the state a one-shard stream
   would be in when this record arrives — so that a shard whose clock
   jumps over positions owned by other shards still makes the same
   join-or-late decision for the key. *)
let push sh a i pos =
  if pos - 1 > sh.clock then begin
    sh.clock <- pos - 1;
    drain sh
  end;
  sh.processed <- sh.processed + 1;
  if pos > sh.clock then sh.clock <- pos;
  let origin = Logsys.Arena.origin a i and seq = Logsys.Arena.pkt_seq a i in
  let slot = Keys.find sh.frontier origin seq in
  let buf =
    if slot >= 0 then Keys.value sh.frontier slot
    else begin
      let e = Keys.find sh.evicted origin seq in
      let late =
        e >= 0
        &&
        if Keys.value sh.evicted e <= sh.clock - sh.retention then begin
          Keys.remove sh.evicted e;
          sh.forgotten <- sh.forgotten + 1;
          false
        end
        else true
      in
      if late then sh.late_fragments <- sh.late_fragments + 1;
      open_buffer sh ~origin ~seq ~late
    end
  in
  append_row sh buf a i pos;
  buf.last_seen <- pos;
  if sh.seen.older != buf then begin
    unlink buf;
    append_newest sh buf
  end;
  sh.frontier_events <- sh.frontier_events + 1;
  if sh.frontier_events > sh.peak_frontier_events then
    sh.peak_frontier_events <- sh.frontier_events;
  drain sh

(* Advance the clock without ingesting — how a shard hears about
   positions routed to its siblings. *)
let advance sh c =
  if c > sh.clock then begin
    sh.clock <- c;
    drain sh
  end

(* End of input: flush every open packet ([release] orders them). *)
let finish_shard sh =
  let before = counters sh in
  while sh.seen.newer != sh.seen do
    evict sh ~final:true sh.seen.newer
  done;
  flush_metrics sh before

(* -- The stream: one round per segment ------------------------------------- *)

(* A worker's job slot, under [w_mu].  The caller posts a [Round] into an
   [Idle] slot; the worker runs it and leaves [Idle], or [Raised] if it
   failed; [await] takes that result and leaves [Idle].  [Quit] ends the
   worker. *)
type slot =
  | Idle
  | Round of Logsys.Arena.slice * int
      (** the segment, and the global position before its first row *)
  | Raised of exn
  | Quit

(* A shard other than shard 0, running on its own domain. *)
type worker = {
  w_shard : shard;
  w_mu : Mutex.t;
  w_cond : Condition.t;
  mutable w_slot : slot;
  mutable w_domain : unit Domain.t option;
}

type state = Live | Done of summary | Failed of exn

type t = {
  st_emit : emitted -> unit;
  shards : shard array;
  (* Shards 1 .. n-1; shard 0 runs in the caller's domain. *)
  workers : worker array;
  mutable st_clock : int;  (* global records routed so far *)
  mutable segments : int;
  mutable state : state;
}

let shard_of ~origin ~seq n =
  ((origin * 0x9E3779B1) lxor (seq * 0x85EBCA6B)) land max_int mod n

(* One shard's part of a round: scan the segment, numbering each row
   with a non-negative node from [start + 1], ingest the rows whose key
   hashes to this shard, then hear every position up to the segment's
   last, which it returns. *)
let run_round sh (s : Logsys.Arena.slice) start =
  let before = counters sh in
  let a = s.sl_base in
  let pos = ref start in
  for i = s.sl_off to s.sl_off + s.sl_len - 1 do
    if Logsys.Arena.node a i >= 0 then begin
      incr pos;
      if
        sh.n_shards = 1
        || shard_of ~origin:(Logsys.Arena.origin a i)
             ~seq:(Logsys.Arena.pkt_seq a i) sh.n_shards
           = sh.index
      then push sh a i !pos
    end
  done;
  advance sh !pos;
  flush_metrics sh before;
  !pos

(* [run_round], in one [refill.stream.shard] span on the shard's domain
   row when tracing is on; free otherwise. *)
let shard_round sh s start =
  if Obs.Span.enabled () then
    Obs.Profile.with_stage ~name:"refill.stream.shard" (fun () ->
        run_round sh s start)
  else run_round sh s start

let worker_loop w =
  let rec next () =
    let slot =
      Mutex.protect w.w_mu (fun () ->
          while (match w.w_slot with Idle | Raised _ -> true | _ -> false) do
            Condition.wait w.w_cond w.w_mu
          done;
          w.w_slot)
    in
    match slot with
    | Round (s, start) ->
        let result =
          match shard_round w.w_shard s start with
          | _ -> Idle
          | exception e -> Raised e
        in
        Mutex.protect w.w_mu (fun () ->
            w.w_slot <- result;
            Condition.signal w.w_cond);
        next ()
    | Idle | Raised _ | Quit -> ()
  in
  next ()

let post w slot =
  Mutex.protect w.w_mu (fun () ->
      w.w_slot <- slot;
      Condition.signal w.w_cond)

(* Wait for [w]'s round to end: [Some e] if it raised [e]. *)
let await w =
  Mutex.protect w.w_mu (fun () ->
      while (match w.w_slot with Round _ -> true | _ -> false) do
        Condition.wait w.w_cond w.w_mu
      done;
      let result = match w.w_slot with Raised e -> Some e | _ -> None in
      w.w_slot <- Idle;
      result)

(* Build [n] shards, let [init] populate each (resume restores shard
   state) before any domain starts, and start a worker domain for every
   shard but shard 0. *)
let launch ~n ~flags ~watermark ~retention ~sink ~emit ~clock ~segments ~init
    =
  let shards =
    Array.init n (fun i ->
        let sh =
          make_shard ~index:i ~n_shards:n ~flags ~watermark ~retention ~sink
        in
        init i sh;
        sh)
  in
  let workers =
    Array.init (n - 1) (fun i ->
        {
          w_shard = shards.(i + 1);
          w_mu = Mutex.create ();
          w_cond = Condition.create ();
          w_slot = Idle;
          w_domain = None;
        })
  in
  Array.iter
    (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w)))
    workers;
  {
    st_emit = emit;
    shards;
    workers;
    st_clock = clock;
    segments;
    state = Live;
  }

let create ?(config = Config.default) ~sink ~emit () =
  let (c : Config.t) = config in
  launch ~n:(max 1 c.shards)
    ~flags:(c.use_intra, c.use_inter, c.provenance)
    ~watermark:c.watermark ~retention:(Config.resolved_retention c) ~sink
    ~emit ~clock:0 ~segments:0 ~init:(fun _ _ -> ())

let shards t = Array.length t.shards
let processed t = t.st_clock

(* Stop and join every worker still running; idempotent.  A worker still
   in a round (the caller failed first) ends it before it quits. *)
let shutdown t =
  Array.iter
    (fun w ->
      Option.iter
        (fun d ->
          ignore (await w);
          post w Quit;
          Domain.join d;
          w.w_domain <- None)
        w.w_domain)
    t.workers

(* Any failure poisons the stream: all domains are joined and every later
   call re-raises it. *)
let fail t e =
  t.state <- Failed e;
  shutdown t;
  raise e

let guarded t f = try f () with e -> fail t e

let check_live t =
  match t.state with
  | Live -> ()
  | Done _ -> invalid_arg "Stream.feed: stream already finished"
  | Failed e -> raise e

(* Emit every shard's buffered evictions in the one-shard order [by]. *)
let release t ~by =
  let all =
    Array.fold_left
      (fun acc sh ->
        let p = sh.pending in
        sh.pending <- [];
        List.rev_append p acc)
      [] t.shards
  in
  List.iter (fun p -> t.st_emit p.p_emitted) (List.sort by all)

let aggregate t =
  Array.fold_left
    (fun acc sh ->
      let s = counters sh in
      {
        acc with
        events = acc.events + s.events;
        flows = acc.flows + s.flows;
        complete = acc.complete + s.complete;
        incomplete = acc.incomplete + s.incomplete;
        evictions = acc.evictions + s.evictions;
        late_fragments = acc.late_fragments + s.late_fragments;
        forgotten_keys = acc.forgotten_keys + s.forgotten_keys;
        frontier_events = acc.frontier_events + s.frontier_events;
        peak_frontier_events =
          acc.peak_frontier_events + s.peak_frontier_events;
      })
    {
      events = 0;
      segments = t.segments;
      flows = 0;
      complete = 0;
      incomplete = 0;
      evictions = 0;
      late_fragments = 0;
      forgotten_keys = 0;
      frontier_events = 0;
      peak_frontier_events = 0;
    }
    t.shards

let publish_gauges (s : summary) =
  Obs.Metrics.Gauge.set g_frontier (float_of_int s.frontier_events);
  Obs.Metrics.Gauge.set g_peak (float_of_int s.peak_frontier_events)

(* One round.  The caller posts each worker the segment and the global
   position before it, runs shard 0's part itself, waits for every
   worker, and emits the round's evictions ascending by last_seen: the
   one-shard order, since positions are unique and an eviction's trigger
   is [last_seen + watermark].  Every shard scans the whole segment for
   its own rows, so nothing is bucketed or materialized here.  When
   tracing is on, each shard's part is a [refill.stream.shard] span on
   its domain's row, the emission a [refill.stream.release] span, and
   each eviction a [refill.packet] span. *)
let feed_arena t (s : Logsys.Arena.slice) =
  check_live t;
  guarded t @@ fun () ->
  t.segments <- t.segments + 1;
  Obs.Metrics.Counter.inc c_segments;
  let start = t.st_clock in
  Array.iter (fun w -> post w (Round (s, start))) t.workers;
  t.st_clock <- shard_round t.shards.(0) s start;
  let failure =
    Array.fold_left
      (fun acc w ->
        let r = await w in
        if Option.is_some acc then acc else r)
      None t.workers
  in
  Option.iter raise failure;
  let by a b = Int.compare a.p_last_seen b.p_last_seen in
  if Obs.Span.enabled () then
    Obs.Profile.with_stage ~name:"refill.stream.release" (fun () ->
        release t ~by)
  else release t ~by;
  publish_gauges (aggregate t)

let feed t records =
  feed_arena t (Logsys.Arena.slice_all (Logsys.Arena.of_records records))

let summary t =
  match t.state with
  | Done s -> s
  | Failed e -> raise e
  | Live ->
      let s = aggregate t in
      publish_gauges s;
      s

(* Join the workers, flush every frontier, and emit the finals in
   ascending key order — the one-shard finish order. *)
let finish t =
  match t.state with
  | Done s -> s
  | Failed e -> raise e
  | Live ->
      guarded t @@ fun () ->
      shutdown t;
      Array.iter finish_shard t.shards;
      release t ~by:(fun a b -> compare_key a.p_key b.p_key);
      let s = aggregate t in
      publish_gauges s;
      t.state <- Done s;
      s

(* -- Checkpointing --------------------------------------------------------- *)

let ckpt_magic = "# refill-stream-ckpt v2"

let checkpoint t oc =
  (match t.state with
  | Live -> ()
  | Done _ -> invalid_arg "Stream.checkpoint: stream finished"
  | Failed e -> raise e);
  let s0 = t.shards.(0) in
  (* Written out at each line past 64 KiB, so memory stays bounded. *)
  let b = Buffer.create 65536 in
  let line tag ints =
    Buffer.add_string b tag;
    List.iter (Prelude.Decimal.add_field b) ints;
    Buffer.add_char b '\n';
    if Buffer.length b >= 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  let flag v = if v then 1 else 0 in
  line ckpt_magic [];
  line "# shards" [ Array.length t.shards ];
  line "# use-intra" [ flag s0.use_intra ];
  line "# use-inter" [ flag s0.use_inter ];
  line "# provenance" [ flag s0.provenance ];
  line "# watermark" [ s0.watermark ];
  line "# retention" [ s0.retention ];
  line "# segments" [ t.segments ];
  line "# clock" [ t.st_clock ];
  Array.iteri
    (fun i sh ->
      line "# shard" [ i ];
      line "# processed" [ sh.processed ];
      line "# flows" [ sh.flows ];
      line "# complete" [ sh.complete ];
      line "# incomplete" [ sh.incomplete ];
      line "# evictions" [ sh.evictions ];
      line "# late-fragments" [ sh.late_fragments ];
      line "# forgotten" [ sh.forgotten ];
      line "# peak-frontier" [ sh.peak_frontier_events ];
      let ev =
        Keys.fold
          (fun origin seq tr acc -> ((origin, seq), tr) :: acc)
          sh.evicted []
      in
      List.iter
        (fun ((origin, seq), trigger) -> line "e" [ origin; seq; trigger ])
        (List.sort compare_evicted ev);
      (* Buffers ascending by last_seen, as the last-seen list holds them;
         resume appends them to its list in this order. *)
      let bf = ref sh.seen.newer in
      while !bf != sh.seen do
        let f = !bf in
        line "b" [ f.b_origin; f.b_seq; f.last_seen; flag f.b_late; f.count ];
        let row = ref f.head in
        for _ = 1 to f.count do
          Logsys.Log_io.add_record_line_exact b (row_record sh !row);
          Buffer.add_char b '\n';
          row := link sh !row
        done;
        bf := f.newer
      done)
    t.shards;
  Buffer.output_buffer oc b

(* Write [path.tmp], close it, then rename it over [path]: a crash or a
   failed write mid-checkpoint leaves the previous checkpoint intact. *)
let checkpoint_file t path =
  let tmp = path ^ ".tmp" in
  let io path message = Error (Error.Io { path; message }) in
  match open_out tmp with
  | exception Sys_error message -> io tmp message
  | oc -> (
      match
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            checkpoint t oc;
            close_out oc)
      with
      | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          (match e with Sys_error message -> io tmp message | e -> raise e)
      | () -> (
          match Sys.rename tmp path with
          | () -> Ok ()
          | exception Sys_error message -> io path message))

(* -- Checkpoint parsing ---------------------------------------------------- *)

(* A restored buffer: its rows are [rb_first, rb_first + rb_count) of the
   checkpoint's row arena, in arrival order. *)
type rbuffer = {
  rb_origin : int;
  rb_seq : int;
  rb_last_seen : int;
  rb_late : bool;
  rb_first : int;
  rb_count : int;
}

type rshard = {
  mutable rs_processed : int;
  mutable rs_flows : int;
  mutable rs_complete : int;
  mutable rs_incomplete : int;
  mutable rs_evictions : int;
  mutable rs_late : int;
  mutable rs_forgotten : int;
  mutable rs_peak : int;
  mutable rs_evicted : ((int * int) * int) list;
  mutable rs_buffers : rbuffer list;
}

type restored = {
  r_flags : bool * bool * bool;  (* use-intra, use-inter, provenance *)
  r_watermark : int;
  r_retention : int;
  r_segments : int;
  r_clock : int;
  r_shards : rshard array;
  r_rows : Logsys.Arena.t;  (* every restored buffer's records *)
}

let fresh_rshard () =
  {
    rs_processed = 0;
    rs_flows = 0;
    rs_complete = 0;
    rs_incomplete = 0;
    rs_evictions = 0;
    rs_late = 0;
    rs_forgotten = 0;
    rs_peak = 0;
    rs_evicted = [];
    rs_buffers = [];
  }

let int_field line key =
  match String.split_on_char ' ' line with
  | [ "#"; k; v ] when k = key -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> failwith (Printf.sprintf "Stream: bad %s value %S" key v))
  | _ -> failwith (Printf.sprintf "Stream: expected '# %s N', got %S" key line)

let flag_field line key =
  match int_field line key with
  | 0 -> false
  | 1 -> true
  | n -> failwith (Printf.sprintf "Stream: bad %s flag %d" key n)

(* Evicted/buffer lines of one shard section, until EOF or the next
   [# shard] header. *)
let parse_shard_body rs rows next_line peek_line =
  let is_shard_header line =
    String.length line >= 7 && String.sub line 0 7 = "# shard"
  in
  let continue = ref true in
  while !continue do
    match peek_line () with
    | None -> continue := false
    | Some line when is_shard_header line -> continue := false
    | Some _ -> (
        let line = next_line () in
        if String.length line = 0 then ()
        else
          match line.[0] with
          | 'e' -> (
              match String.split_on_char ' ' line with
              | [ "e"; origin; seq; trigger ] ->
                  rs.rs_evicted <-
                    ( (int_of_string origin, int_of_string seq),
                      int_of_string trigger )
                    :: rs.rs_evicted
              | _ ->
                  failwith
                    (Printf.sprintf "Stream: malformed evicted line %S" line))
          | 'b' -> (
              match String.split_on_char ' ' line with
              | [ "b"; origin; seq; last_seen; late; count ] ->
                  let origin = int_of_string origin
                  and seq = int_of_string seq
                  and last_seen = int_of_string last_seen
                  and count = int_of_string count in
                  if count <= 0 then failwith "Stream: empty checkpoint buffer";
                  let late =
                    match late with
                    | "0" -> false
                    | "1" -> true
                    | _ ->
                        failwith
                          (Printf.sprintf "Stream: bad late flag %S" late)
                  in
                  let first = Logsys.Arena.length rows in
                  for _ = 1 to count do
                    let r = Logsys.Log_io.record_of_line (next_line ()) in
                    if r.origin <> origin || r.pkt_seq <> seq then
                      failwith
                        (Printf.sprintf
                           "Stream: buffer (%d, %d) holds a record of packet \
                            (%d, %d)"
                           origin seq r.origin r.pkt_seq);
                    Logsys.Arena.push rows r
                  done;
                  rs.rs_buffers <-
                    {
                      rb_origin = origin;
                      rb_seq = seq;
                      rb_last_seen = last_seen;
                      rb_late = late;
                      rb_first = first;
                      rb_count = count;
                    }
                    :: rs.rs_buffers
              | _ ->
                  failwith
                    (Printf.sprintf "Stream: malformed buffer line %S" line))
          | _ -> failwith (Printf.sprintf "Stream: malformed line %S" line))
  done

let parse_checkpoint ic =
  let peeked = ref None in
  let next_line () =
    match !peeked with
    | Some l ->
        peeked := None;
        l
    | None -> input_line ic
  in
  let peek_line () =
    match !peeked with
    | Some l -> Some l
    | None -> (
        match input_line ic with
        | exception End_of_file -> None
        | l ->
            peeked := Some l;
            Some l)
  in
  let magic = next_line () in
  if magic <> ckpt_magic then
    failwith (Printf.sprintf "Stream: bad checkpoint header %S" magic);
  let shards = int_field (next_line ()) "shards" in
  if shards < 1 || shards > 65536 then
    failwith (Printf.sprintf "Stream: implausible shard count %d" shards);
  let use_intra = flag_field (next_line ()) "use-intra" in
  let use_inter = flag_field (next_line ()) "use-inter" in
  let provenance = flag_field (next_line ()) "provenance" in
  let watermark = int_field (next_line ()) "watermark" in
  let retention = int_field (next_line ()) "retention" in
  let segments = int_field (next_line ()) "segments" in
  let clock = int_field (next_line ()) "clock" in
  let r_shards = Array.init shards (fun _ -> fresh_rshard ()) in
  let rows = Logsys.Arena.create () in
  for i = 0 to shards - 1 do
    let hdr = next_line () in
    (match String.split_on_char ' ' hdr with
    | [ "#"; "shard"; k ] when int_of_string_opt k = Some i -> ()
    | _ ->
        failwith
          (Printf.sprintf "Stream: expected '# shard %d', got %S" i hdr));
    let rs = r_shards.(i) in
    rs.rs_processed <- int_field (next_line ()) "processed";
    rs.rs_flows <- int_field (next_line ()) "flows";
    rs.rs_complete <- int_field (next_line ()) "complete";
    rs.rs_incomplete <- int_field (next_line ()) "incomplete";
    rs.rs_evictions <- int_field (next_line ()) "evictions";
    rs.rs_late <- int_field (next_line ()) "late-fragments";
    rs.rs_forgotten <- int_field (next_line ()) "forgotten";
    rs.rs_peak <- int_field (next_line ()) "peak-frontier";
    parse_shard_body rs rows next_line peek_line
  done;
  (match peek_line () with
  | None -> ()
  | Some l -> failwith (Printf.sprintf "Stream: trailing line %S" l));
  {
    r_flags = (use_intra, use_inter, provenance);
    r_watermark = watermark;
    r_retention = retention;
    r_segments = segments;
    r_clock = clock;
    r_shards;
    r_rows = rows;
  }

(* Reject nonsensical headers before building anything: a stream restored
   from garbage would run with a garbage drain limit. *)
let validate_restored r =
  let fail msg = failwith ("Stream: bad checkpoint: " ^ msg) in
  if r.r_watermark <= 0 then fail "non-positive watermark";
  if r.r_retention < 0 then fail "negative retention";
  if r.r_segments < 0 then fail "negative segments";
  if r.r_clock < 0 then fail "negative clock";
  let total = ref 0 in
  let buffered = Hashtbl.create 64 in
  Array.iter
    (fun rs ->
      if rs.rs_processed < 0 then fail "negative processed";
      total := !total + rs.rs_processed;
      if rs.rs_flows < 0 || rs.rs_complete < 0 || rs.rs_incomplete < 0 then
        fail "negative flow counter";
      if rs.rs_flows <> rs.rs_complete + rs.rs_incomplete then
        fail "flows disagree with complete + incomplete";
      if rs.rs_evictions < 0 || rs.rs_late < 0 || rs.rs_forgotten < 0 then
        fail "negative counter";
      let events =
        List.fold_left (fun acc b -> acc + b.rb_count) 0 rs.rs_buffers
      in
      if rs.rs_peak < events then fail "peak-frontier below restored frontier";
      List.iter
        (fun (_, trigger) ->
          if trigger < 1 || trigger > r.r_clock then
            fail "evicted trigger out of range")
        rs.rs_evicted;
      List.iter
        (fun b ->
          if b.rb_last_seen < 1 || b.rb_last_seen > r.r_clock then
            fail "buffer last-seen out of range";
          (* One buffer per key across every shard: a second one would
             emit the packet twice. *)
          let key = (b.rb_origin, b.rb_seq) in
          if Hashtbl.mem buffered key then fail "packet buffered twice";
          Hashtbl.add buffered key ())
        rs.rs_buffers)
    r.r_shards;
  if !total <> r.r_clock then fail "shard record totals disagree with clock"

(* The checkpoint's semantic flags win; an explicit config conflicting
   with them is an error — resuming under different semantics silently
   changes what the reconstruction means. *)
let resolve_flags r ~config =
  let ((ui, ue, pv) as flags) = r.r_flags in
  match config with
  | Some (c : Config.t)
    when c.Config.use_intra <> ui
         || c.Config.use_inter <> ue
         || c.Config.provenance <> pv ->
      failwith
        (Printf.sprintf
           "Stream: config conflicts with checkpoint semantics (checkpoint: \
            use-intra=%b use-inter=%b provenance=%b)"
           ui ue pv)
  | _ -> flags

let as_bad_checkpoint f =
  match f () with
  | t -> Ok t
  | exception Failure message ->
      Error (Error.Bad_checkpoint { source = "checkpoint"; message })
  | exception End_of_file ->
      Error
        (Error.Bad_checkpoint
           { source = "checkpoint"; message = "truncated checkpoint" })
  | exception Sys_error message ->
      Error (Error.Io { path = "checkpoint"; message })

(* Resume re-hashes the checkpoint's shards (any count) into
   [config.shards] fresh ones.  Aggregate counters land on shard 0; every
   shard starts at the restored clock. *)
let resume ?config ic ~sink ~emit =
  as_bad_checkpoint (fun () ->
      let r = parse_checkpoint ic in
      validate_restored r;
      let flags = resolve_flags r ~config in
      let n =
        max 1 (Option.value config ~default:Config.default).Config.shards
      in
      let rss = Array.to_list r.r_shards in
      let ev = Array.make n [] and bufs = Array.make n [] in
      (* Canonical orders, built back to front: evicted ascending by
         (trigger, key), buffers ascending by last_seen. *)
      List.iter
        (fun (((origin, seq), _) as e) ->
          let i = shard_of ~origin ~seq n in
          ev.(i) <- e :: ev.(i))
        (List.rev
           (List.sort compare_evicted
              (List.concat_map (fun rs -> rs.rs_evicted) rss)));
      List.iter
        (fun b ->
          let i = shard_of ~origin:b.rb_origin ~seq:b.rb_seq n in
          bufs.(i) <- b :: bufs.(i))
        (List.rev
           (List.sort
              (fun a b -> Int.compare a.rb_last_seen b.rb_last_seen)
              (List.concat_map (fun rs -> rs.rs_buffers) rss)));
      let init i sh =
        sh.clock <- r.r_clock;
        List.iter
          (fun ((origin, seq), trigger) ->
            Keys.replace sh.evicted origin seq trigger;
            ring_push sh.prune trigger origin seq)
          ev.(i);
        List.iter
          (fun rb ->
            let b =
              open_buffer sh ~origin:rb.rb_origin ~seq:rb.rb_seq
                ~late:rb.rb_late
            in
            for k = rb.rb_first to rb.rb_first + rb.rb_count - 1 do
              append_row sh b r.r_rows k (-1)
            done;
            b.last_seen <- rb.rb_last_seen;
            sh.frontier_events <- sh.frontier_events + rb.rb_count)
          bufs.(i);
        sh.peak_frontier_events <- sh.frontier_events;
        if i = 0 then begin
          sh.processed <- r.r_clock;
          let peak = ref 0 in
          Array.iter
            (fun rs ->
              sh.flows <- sh.flows + rs.rs_flows;
              sh.complete <- sh.complete + rs.rs_complete;
              sh.incomplete <- sh.incomplete + rs.rs_incomplete;
              sh.evictions <- sh.evictions + rs.rs_evictions;
              sh.late_fragments <- sh.late_fragments + rs.rs_late;
              sh.forgotten <- sh.forgotten + rs.rs_forgotten;
              peak := !peak + rs.rs_peak)
            r.r_shards;
          sh.peak_frontier_events <- max !peak sh.frontier_events
        end
      in
      launch ~n ~flags ~watermark:r.r_watermark ~retention:r.r_retention
        ~sink ~emit ~clock:r.r_clock ~segments:r.r_segments ~init)

let resume_file ?config path ~sink ~emit =
  match open_in path with
  | exception Sys_error message -> Error (Error.Io { path; message })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> resume ?config ic ~sink ~emit)
