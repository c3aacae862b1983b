module Obs = Refill_obs

let h_latency =
  Obs.Metrics.Histogram.v "refill_packet_latency_seconds"
    ~help:"Wall time to reconstruct one packet's event flow."

let c_packets =
  Obs.Metrics.Counter.v "refill_packets_reconstructed_total"
    ~help:"Packets run through the reconstruction engines."

(* -- Per-domain scratch ---------------------------------------------------- *)

(* Everything one packet's reconstruction writes besides the arrays its
   flow keeps, one set per domain, grown to the largest packet seen.  A
   domain reconstructs one packet at a time: its systhreads share this
   scratch, as they share {!Flow.Builder}'s buffer and the engine's pool,
   so they must never reconstruct concurrently (serve feeds the stream
   from one loop thread, and the CLI runs one thread). *)
type scratch = {
  (* The packet's rows in node-scan order: node, kind tag, the peer
     column as logged, and the id the row's logged item gets as its
     {!Flow.row}. *)
  mutable n : int;
  mutable nodes : int array;
  mutable tags : int array;
  mutable peers : int array;
  mutable ids : int array;
  (* The engine's packed input ({!Engine.Packed}), slots [0, out). *)
  mutable out : int;
  mutable e_nodes : int array;
  mutable e_labels : Protocol.label array;
  mutable e_ids : int array;
  mutable e_payloads : int option array;
  mutable e_pre_nodes : int array;
  mutable e_pre_states : int array;
  mutable e_srcs : int array;
  (* The rows' maximal same-node runs ("segments"): where each starts
     ([seg_start.(n_segs)] is [n]), its node, its next hop (first
     sender-side row's peer), its first and last [trans] rows, and whether
     a chain walk took it.  [chain] holds one walk's segments in order. *)
  mutable seg_start : int array;
  mutable seg_node : int array;
  mutable seg_next : int array;
  mutable seg_ft : int array;
  mutable seg_lt : int array;
  mutable seg_used : bool array;
  mutable chain : int array;
  (* The arrival-order gatherer's sort: a permutation of the rows and its
     merge buffer. *)
  mutable perm : int array;
  mutable perm_tmp : int array;
  (* [boxes.(p + 1)] is the one [Some p] every payload naming peer [p]
     shares, made when [p] is first seen. *)
  mutable boxes : int option array;
  (* The packet being reconstructed. *)
  mutable origin : int;
  mutable sink : int;
  mutable use_inter : bool;
  (* What the engine's side-car callbacks leave. *)
  mutable prov : Provenance.t array;
  mutable item_rows : int array;
}

(* Room for [n] rows; [seg_start] has one slot more, so even a packet with
   no rows, first on its domain, finds [seg_start.(0)]. *)
let ensure s n =
  if Array.length s.seg_start <= n then begin
    let cap = max n (max 64 (2 * Array.length s.nodes)) in
    let ints () = Array.make cap (-1) in
    s.nodes <- ints ();
    s.tags <- ints ();
    s.peers <- ints ();
    s.ids <- ints ();
    s.e_nodes <- ints ();
    s.e_labels <- Array.make cap Protocol.L_gen;
    s.e_ids <- ints ();
    s.e_payloads <- Array.make cap None;
    s.e_pre_nodes <- ints ();
    s.e_pre_states <- ints ();
    s.e_srcs <- ints ();
    s.seg_start <- Array.make (cap + 1) 0;
    s.seg_node <- ints ();
    s.seg_next <- ints ();
    s.seg_ft <- ints ();
    s.seg_lt <- ints ();
    s.seg_used <- Array.make cap false;
    s.chain <- ints ();
    s.perm <- ints ();
    s.perm_tmp <- ints ()
  end

(* The table's size limit: it holds the boxes of peers -1
   ({!Protocol.unknown_node}) to [box_limit - 2], and a larger peer (only
   a corrupt row names one) gets a box of its own, so no peer value sizes
   the table. *)
let box_limit = 1 lsl 16

let rec box s peer =
  let k = peer + 1 in
  if k >= 0 && k < Array.length s.boxes then
    match Array.unsafe_get s.boxes k with
    | Some _ as b -> b
    | None ->
        let b = Some peer in
        s.boxes.(k) <- b;
        b
  else if k >= 0 && k < box_limit then begin
    let len = Array.length s.boxes in
    let boxes = Array.make (min box_limit (max (k + 1) (2 * len))) None in
    Array.blit s.boxes 0 boxes 0 len;
    s.boxes <- boxes;
    box s peer
  end
  else Some peer

(* -- Peers of inferred events ---------------------------------------------- *)

(* An inferred event's peer is recovered from the packet's surviving rows,
   the first matching row in node-scan order answering.  Who transmitted
   toward [node]?  A sender-side row (trans, ack, timeout) naming it. *)
let rec sender_toward s node i =
  if i >= s.n then Protocol.unknown_node
  else
    let tag = s.tags.(i) in
    if tag >= 4 && tag <= 6 && s.peers.(i) = node then s.nodes.(i)
    else sender_toward s node (i + 1)

(* Whom did [node] transmit to?  Its own first sender-side row's target,
   else a receiver-side row (recv, dup, overflow) naming it as the
   sender. *)
let rec own_target s node i =
  if i >= s.n then named_receiver s node 0
  else
    let tag = s.tags.(i) in
    if tag >= 4 && tag <= 6 && s.nodes.(i) = node then s.peers.(i)
    else own_target s node (i + 1)

and named_receiver s node i =
  if i >= s.n then Protocol.unknown_node
  else
    let tag = s.tags.(i) in
    if tag >= 1 && tag <= 3 && s.peers.(i) = node then s.nodes.(i)
    else named_receiver s node (i + 1)

let infer_peer s ~node : Protocol.label -> int = function
  | L_gen | L_deliver -> 0
  | L_recv | L_dup | L_overflow -> sender_toward s node 0
  | L_trans | L_ack | L_timeout -> own_target s node 0

(* -- The packer ------------------------------------------------------------ *)

(* Pack row [src] into the next input slot: its label, dense FSM id (by
   the node's role), peer payload and inter-node prerequisite. *)
let put s src =
  let i = s.out in
  let node = s.nodes.(src) and tag = s.tags.(src) in
  let peer = if tag >= 1 && tag <= 6 then s.peers.(src) else 0 in
  let role = Protocol.role_of ~origin:s.origin ~sink:s.sink node in
  s.e_nodes.(i) <- node;
  s.e_labels.(i) <- Protocol.label_of_tag tag;
  s.e_ids.(i) <- Protocol.label_id_of_tag role tag;
  s.e_payloads.(i) <- box s peer;
  let pn =
    if s.use_inter then Protocol.prerequisite_node ~node tag peer else -1
  in
  s.e_pre_nodes.(i) <- pn;
  if pn >= 0 then s.e_pre_states.(i) <- Protocol.prerequisite_state tag;
  s.e_srcs.(i) <- src;
  s.out <- i + 1

let put_range s lo hi =
  for src = lo to hi - 1 do
    put s src
  done

(* Pack the walk's [len] segments.  Within a chain, interleave the way
   the radio exchange actually happens: a hop's rows through its last
   [trans], then the next hop's reception-side processing
   (recv/dup/overflow, the sink's deliver), then the previous hop's
   trailing ACK/timeout — which in real time lands after the next hop has
   received the packet.  The three-way split is [lo, ft) head, [ft, lt]
   mid, (lt, hi) post. *)
let put_chain s len =
  let post_lo = ref 0 and post_hi = ref 0 in
  for k = 0 to len - 1 do
    let sg = s.chain.(k) in
    let lo = s.seg_start.(sg) and hi = s.seg_start.(sg + 1) in
    let ft = s.seg_ft.(sg) and lt = s.seg_lt.(sg) in
    if ft < 0 then begin
      put_range s lo hi;
      put_range s !post_lo !post_hi;
      post_lo := 0;
      post_hi := 0
    end
    else begin
      put_range s lo ft;
      put_range s !post_lo !post_hi;
      put_range s ft (lt + 1);
      post_lo := lt + 1;
      post_hi := hi
    end
  done;
  put_range s !post_lo !post_hi

(* The first segment of [node] at or after [sg] that no walk took yet,
   or -1. *)
let rec find_segment s n_segs node sg =
  if sg >= n_segs then -1
  else if (not s.seg_used.(sg)) && s.seg_node.(sg) = node then sg
  else find_segment s n_segs node (sg + 1)

(* Walk from [node]'s segment along next hops (at most 256), taking each
   segment; the walk's length, its segments in [chain]. *)
let walk s n_segs node =
  let len = ref 0 and node = ref node and more = ref true in
  while !more && !len < 256 do
    match find_segment s n_segs !node 0 with
    | -1 -> more := false
    | sg ->
        s.seg_used.(sg) <- true;
        s.chain.(!len) <- sg;
        incr len;
        let next = s.seg_next.(sg) in
        if next >= 0 && next <> !node then node := next else more := false
  done;
  !len

(* Pack the gathered rows into the engine's input: segment discovery in
   one pass over the rows, then per-node runs merged along the forwarding
   chains they reveal — start at the origin, follow each run's next hop,
   and restart from any run loss disconnected from its upstream.  Each
   node's local order is kept, and the causal order means prerequisites
   are almost always already satisfied, so drives rarely cascade.  Under
   loss the engine's output does depend on the cross-node order (node-scan
   order alone infers differently), so this order is part of every flow,
   batch and stream alike. *)
let pack s =
  let n = s.n in
  s.out <- 0;
  let n_segs = ref 0 and last = ref (-1) in
  for i = 0 to n - 1 do
    let node = s.nodes.(i) in
    if node <> !last then begin
      let sg = !n_segs in
      s.seg_start.(sg) <- i;
      s.seg_node.(sg) <- node;
      s.seg_next.(sg) <- -1;
      s.seg_ft.(sg) <- -1;
      s.seg_lt.(sg) <- -1;
      s.seg_used.(sg) <- false;
      n_segs := sg + 1;
      last := node
    end;
    let sg = !n_segs - 1 and tag = s.tags.(i) in
    if tag >= 4 && tag <= 6 then begin
      if tag = 4 then begin
        if s.seg_ft.(sg) < 0 then s.seg_ft.(sg) <- i;
        s.seg_lt.(sg) <- i
      end;
      if s.seg_next.(sg) < 0 then s.seg_next.(sg) <- s.peers.(i)
    end
  done;
  let n_segs = !n_segs in
  s.seg_start.(n_segs) <- n;
  put_chain s (walk s n_segs s.origin);
  for sg = 0 to n_segs - 1 do
    if not s.seg_used.(sg) then put_chain s (walk s n_segs s.seg_node.(sg))
  done

(* -- Gatherers --------------------------------------------------------------- *)

(* A packet's index rows, already in node-scan order. *)
let gather_rows s arena rows =
  let n = Array.length rows in
  ensure s n;
  for k = 0 to n - 1 do
    let r = rows.(k) in
    s.nodes.(k) <- Logsys.Arena.node arena r;
    s.tags.(k) <- Logsys.Arena.tag arena r;
    s.peers.(k) <- Logsys.Arena.peer arena r;
    s.ids.(k) <- r
  done;
  s.n <- n

(* Stable merge sort of [perm.(lo .. hi-1)] by [key], through [tmp]. *)
let rec sort_by_key key perm tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_by_key key perm tmp lo mid;
    sort_by_key key perm tmp mid hi;
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && key.(perm.(!i)) <= key.(perm.(!j))) then begin
        tmp.(k) <- perm.(!i);
        incr i
      end
      else begin
        tmp.(k) <- perm.(!j);
        incr j
      end
    done;
    Array.blit tmp lo perm lo (hi - lo)
  end

(* A packet's rows in arrival order (each node's rows in its local write
   order), ordered by node: the stable sort restores node-scan order. *)
let gather_arrivals s ~nodes ~tags ~peers ~ids n =
  ensure s n;
  let perm = s.perm in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  sort_by_key nodes perm s.perm_tmp 0 n;
  for k = 0 to n - 1 do
    let i = perm.(k) in
    s.nodes.(k) <- nodes.(i);
    s.tags.(k) <- tags.(i);
    s.peers.(k) <- peers.(i);
    s.ids.(k) <- ids.(i)
  done;
  s.n <- n

(* -- The kernel ---------------------------------------------------------------- *)

(* A domain's scratch with the closures the engine calls, made once per
   domain over that scratch: the model's FSMs by role, its prerequisites,
   inferred peers by scan, items packed straight into the domain's
   {!Flow.Builder}, and the side-cars left in the scratch. *)
type kernel = {
  s : scratch;
  config : (Protocol.label, int) Engine.config;
  emit :
    node:int ->
    label:Protocol.label ->
    payload:int option ->
    inferred:bool ->
    entered:Fsm_state.t ->
    unit;
  prov_out : (Provenance.t array -> int -> unit) option;
  src_out : (int array -> int -> unit) option;
}

(* Item rows from the engine's source side-car: a logged item's row is
   the id of the row it logs. *)
let map_sources sources len ids =
  let rows = Array.make len (-1) in
  for k = 0 to len - 1 do
    let s = Array.unsafe_get sources k in
    if s >= 0 then rows.(k) <- ids.(s)
  done;
  rows

let kernel_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          n = 0;
          nodes = [||];
          tags = [||];
          peers = [||];
          ids = [||];
          out = 0;
          e_nodes = [||];
          e_labels = [||];
          e_ids = [||];
          e_payloads = [||];
          e_pre_nodes = [||];
          e_pre_states = [||];
          e_srcs = [||];
          seg_start = [||];
          seg_node = [||];
          seg_next = [||];
          seg_ft = [||];
          seg_lt = [||];
          seg_used = [||];
          chain = [||];
          perm = [||];
          perm_tmp = [||];
          boxes = [||];
          origin = 0;
          sink = 0;
          use_inter = true;
          prov = [||];
          item_rows = [||];
        }
      in
      {
        s;
        config =
          {
            fsm_of =
              (fun node ->
                Protocol.fsm_of_role
                  (Protocol.role_of ~origin:s.origin ~sink:s.sink node));
            prerequisites =
              (fun ~node ~label ~payload ->
                if s.use_inter then Protocol.prerequisites ~node ~label ~payload
                else []);
            infer_payload =
              (fun ~node ~label -> box s (infer_peer s ~node label));
          };
        emit = Flow.Builder.push (Flow.Builder.get ());
        prov_out = Some (fun buf len -> s.prov <- Array.sub buf 0 len);
        src_out =
          Some (fun sources len -> s.item_rows <- map_sources sources len s.ids);
      })

(* The gathered packet through the packer, the engine and the builder:
   the flow's arrays are the only ones it allocates. *)
let reconstruct k ~use_intra ~use_inter ~provenance ~arena ~origin ~seq ~sink =
  let t0 = Obs.Span.now_us () in
  let s = k.s in
  s.origin <- origin;
  s.sink <- sink;
  s.use_inter <- use_inter;
  pack s;
  let b = Flow.Builder.get () in
  let stats =
    Engine.process ~use_intra
      ?prov_out:(if provenance then k.prov_out else None)
      ?src_out:k.src_out k.config
      (Engine.Packed
         {
           n = s.n;
           nodes = s.e_nodes;
           labels = s.e_labels;
           ids = s.e_ids;
           payloads = s.e_payloads;
           pre_nodes = s.e_pre_nodes;
           pre_states = s.e_pre_states;
           srcs = s.e_srcs;
         })
      ~emit:k.emit
  in
  Obs.Metrics.Counter.inc c_packets;
  Obs.Metrics.Histogram.observe h_latency ((Obs.Span.now_us () -. t0) /. 1e6);
  Flow.Builder.finish b ~origin ~seq ~stats
    ~prov:(if provenance then s.prov else [||])
    ~rows:s.item_rows arena

(* One [refill.packet] span per packet when tracing is on; free
   otherwise. *)
let kernel k ~use_intra ~use_inter ~provenance ~arena ~origin ~seq ~sink =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.packet"
      ~attrs:[ ("origin", string_of_int origin); ("seq", string_of_int seq) ]
      (fun () ->
        reconstruct k ~use_intra ~use_inter ~provenance ~arena ~origin ~seq
          ~sink)
  else reconstruct k ~use_intra ~use_inter ~provenance ~arena ~origin ~seq ~sink

(* One packet of an index: its rows, each logged item named by its row,
   and payloads left in the index's arena. *)
let of_index ~use_intra ~use_inter ~provenance packets ~origin ~seq ~sink =
  let k = Domain.DLS.get kernel_key in
  let arena = Logsys.Arena.Packets.arena packets in
  gather_rows k.s arena (Logsys.Arena.Packets.packet_rows packets ~origin ~seq);
  kernel k ~use_intra ~use_inter ~provenance ~arena:(Some arena) ~origin ~seq
    ~sink

let packet ?(use_intra = true) ?(use_inter = true) ?(provenance = false)
    packets ~origin ~seq ~sink =
  of_index ~use_intra ~use_inter ~provenance packets ~origin ~seq ~sink

let of_columns ~use_intra ~use_inter ~provenance ~nodes ~tags ~peers ~ids n
    ~origin ~seq ~sink =
  let k = Domain.DLS.get kernel_key in
  gather_arrivals k.s ~nodes ~tags ~peers ~ids n;
  kernel k ~use_intra ~use_inter ~provenance ~arena:None ~origin ~seq ~sink

let of_records ?use_intra ?use_inter ?provenance records ~origin ~seq ~sink =
  let n_nodes =
    Array.fold_left (fun m (r : Logsys.Record.t) -> max m (r.node + 1)) 1 records
  in
  packet ?use_intra ?use_inter ?provenance
    (Logsys.Arena.Packets.build (Logsys.Arena.of_records records) ~n_nodes)
    ~origin ~seq ~sink

(* Every packet of the index, in key order; the index is built before any
   worker starts and read-only afterwards. *)
let run_arena ?(config = Config.default) packets ~sink ~emit =
  Obs.Span.with_ ~name:"refill.reconstruct_all" (fun () ->
      let keys = Array.of_list (Logsys.Arena.Packets.keys packets) in
      let packet_of (origin, seq) =
        of_index ~use_intra:config.use_intra ~use_inter:config.use_inter
          ~provenance:config.provenance packets ~origin ~seq ~sink
      in
      let jobs =
        match config.jobs with Some j -> max 1 j | None -> Par.default_jobs ()
      in
      (* Small workloads aren't worth a domain spawn. *)
      if jobs <= 1 || Array.length keys < Par.min_parallel_items then
        Array.iter (fun key -> emit (packet_of key)) keys
      else Array.iter emit (Par.map_array ~jobs packet_of keys))

let run ?config collected ~sink ~emit =
  run_arena ?config (Logsys.Collected.packets collected) ~sink ~emit

type summary = {
  packets : int;
  logged_events : int;
  inferred_events : int;
  skipped_events : int;
}

let empty_summary =
  { packets = 0; logged_events = 0; inferred_events = 0; skipped_events = 0 }

let summary_add acc (f : Flow.t) =
  {
    packets = acc.packets + 1;
    logged_events = acc.logged_events + f.stats.emitted_logged;
    inferred_events = acc.inferred_events + f.stats.emitted_inferred;
    skipped_events = acc.skipped_events + f.stats.skipped;
  }

let summarize flows = List.fold_left summary_add empty_summary flows
