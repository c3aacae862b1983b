module Obs = Refill_obs

let h_latency =
  Obs.Metrics.Histogram.v "refill_packet_latency_seconds"
    ~help:"Wall time to reconstruct one packet's event flow."

let c_packets =
  Obs.Metrics.Counter.v "refill_packets_reconstructed_total"
    ~help:"Packets run through the reconstruction engines."

(* Growable item buffer for collecting one packet's emissions: presized to
   the input event count plus a few percent (output is the inputs plus the
   inferred events), so the common packet pays one array allocation and no
   cons garbage on the hot path. *)
type 'a buf = { mutable data : 'a array; mutable len : int; hint : int }

let buf_create hint = { data = [||]; len = 0; hint }

let buf_push b it =
  if b.len = Array.length b.data then begin
    let cap = max (max 8 b.hint) (2 * b.len) in
    let grown = Array.make cap it in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  Array.unsafe_set b.data b.len it;
  b.len <- b.len + 1

let buf_to_list b =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (Array.unsafe_get b.data i :: acc)
  in
  go (b.len - 1) []

let of_records ?(use_intra = true) ?(use_inter = true) ?(provenance = false)
    records ~origin ~seq ~sink =
  let t0 = Obs.Span.now_us () in
  let p = Protocol.pack_events records ~origin ~sink in
  let config = Protocol.make_config ~records ~origin ~seq ~sink in
  let config =
    if use_inter then config
    else { config with prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []) }
  in
  let pre_nodes, pre_states =
    (* [use_inter:false] must suppress the packed prerequisites too — empty
       arrays route every event through the (nulled) closure. *)
    if use_inter then (p.Protocol.p_pre_nodes, p.Protocol.p_pre_states)
    else ([||], [||])
  in
  let n = Array.length p.Protocol.p_nodes in
  let items = buf_create (n + (n / 8) + 8) in
  let prov = ref [||] in
  let prov_out =
    if provenance then Some (fun buf len -> prov := Array.sub buf 0 len)
    else None
  in
  let stats =
    Engine.process ~use_intra ?prov_out config
      (Engine.Packed
         {
           nodes = p.Protocol.p_nodes;
           labels = p.Protocol.p_labels;
           ids = p.Protocol.p_ids;
           payloads = p.Protocol.p_payloads;
           pre_nodes;
           pre_states;
           srcs = p.Protocol.p_srcs;
         })
      ~emit:(buf_push items)
  in
  let prov = !prov in
  Par.with_obs_lock (fun () ->
      Obs.Metrics.Counter.inc c_packets;
      Obs.Metrics.Histogram.observe h_latency
        ((Obs.Span.now_us () -. t0) /. 1e6));
  { Flow.origin; seq; items = buf_to_list items; stats; prov }

(* One span per packet when tracing is on; free otherwise. *)
let traced ~origin ~seq f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.packet"
      ~attrs:[ ("origin", string_of_int origin); ("seq", string_of_int seq) ]
      f
  else f ()

let packet ?use_intra ?use_inter ?provenance collected ~origin ~seq ~sink =
  traced ~origin ~seq (fun () ->
      of_records ?use_intra ?use_inter ?provenance
        (Logsys.Collected.packet_records collected ~origin ~seq)
        ~origin ~seq ~sink)

(* The batch skeleton behind [run] and [run_arena]: [keys ()] lists the
   packets in emission order and [records] returns one packet's records
   in node-scan order; both must be safe to call from worker domains once
   [keys] has returned (each source builds its index there). *)
let run_keys (config : Config.t) ~keys ~records ~sink ~emit =
  Obs.Span.with_ ~name:"refill.reconstruct_all" (fun () ->
      let keys = Array.of_list (keys ()) in
      let packet_of (origin, seq) =
        of_records ~use_intra:config.use_intra ~use_inter:config.use_inter
          ~provenance:config.provenance (records ~origin ~seq) ~origin ~seq
          ~sink
      in
      let jobs =
        match config.jobs with Some j -> max 1 j | None -> Par.default_jobs ()
      in
      (* Tracing writes span events through a shared sink; keep those runs
         serial.  Small workloads aren't worth a domain spawn. *)
      if
        jobs <= 1 || Obs.Span.enabled ()
        || Array.length keys < Par.min_parallel_items
      then
        Array.iter
          (fun ((origin, seq) as key) ->
            emit (traced ~origin ~seq (fun () -> packet_of key)))
          keys
      else Array.iter emit (Par.map_array ~jobs packet_of keys))

let run ?(config = Config.default) collected ~sink ~emit =
  run_keys config ~sink ~emit
    ~keys:(fun () -> Logsys.Collected.packet_keys collected)
    ~records:(Logsys.Collected.packet_records collected)

(* Rows materialize once per packet: the packer stores every record as an
   event payload anyway. *)
let run_arena ?(config = Config.default) packets ~sink ~emit =
  let arena = Logsys.Arena.Packets.arena packets in
  run_keys config ~sink ~emit
    ~keys:(fun () -> Logsys.Arena.Packets.keys packets)
    ~records:(fun ~origin ~seq ->
      Array.map (Logsys.Arena.get arena)
        (Logsys.Arena.Packets.packet_rows packets ~origin ~seq))

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

