module Obs = Refill_obs

let h_latency =
  Obs.Metrics.Histogram.v "refill_packet_latency_seconds"
    ~help:"Wall time to reconstruct one packet's event flow."

let c_packets =
  Obs.Metrics.Counter.v "refill_packets_reconstructed_total"
    ~help:"Packets run through the reconstruction engines."

(* Where a packet's records came from, so each logged item can name its
   row: the index rows the records were read from (payloads stay in that
   arena), or each record's stream position (payloads stay in the
   records; [[||]] when the records have none). *)
type source = Index of Logsys.Arena.t * int array | Positions of int array

let map_sources sources len map =
  let rows = Array.make len (-1) in
  for k = 0 to len - 1 do
    let s = Array.unsafe_get sources k in
    if s >= 0 then rows.(k) <- map.(s)
  done;
  rows

let reconstruct ~use_intra ~use_inter ~provenance records ~origin ~seq ~sink
    ~source =
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
  let b = Flow.Builder.get () in
  let prov = ref [||] and rows = ref [||] and refs = ref [||] in
  let prov_out =
    if provenance then Some (fun buf len -> prov := Array.sub buf 0 len)
    else None
  in
  let src_out sources len =
    match source with
    | Index (_, packet_rows) -> rows := map_sources sources len packet_rows
    | Positions positions ->
        refs := Array.sub sources 0 len;
        rows :=
          if Array.length positions = 0 then Array.make len (-1)
          else map_sources sources len positions
  in
  let stats =
    Engine.process ~use_intra ?prov_out ~src_out config
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
      ~emit:(Flow.Builder.push b)
  in
  Obs.Metrics.Counter.inc c_packets;
  Obs.Metrics.Histogram.observe h_latency ((Obs.Span.now_us () -. t0) /. 1e6);
  Flow.Builder.finish b ~origin ~seq ~stats ~prov:!prov ~rows:!rows
    (match source with
    | Index (arena, _) -> Flow.Arena arena
    | Positions _ -> Flow.Records (records, !refs))

let of_records ?(use_intra = true) ?(use_inter = true) ?(provenance = false)
    ?(positions = [||]) records ~origin ~seq ~sink =
  reconstruct ~use_intra ~use_inter ~provenance records ~origin ~seq ~sink
    ~source:(Positions positions)

(* One span per packet when tracing is on; free otherwise. *)
let traced ~origin ~seq f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.packet"
      ~attrs:[ ("origin", string_of_int origin); ("seq", string_of_int seq) ]
      f
  else f ()

(* One packet of an index; [records] returns its rows' records, in the
   order the packer wants. *)
let indexed ~(config : Config.t) packets ~records ~sink ~origin ~seq =
  let rows = Logsys.Arena.Packets.packet_rows packets ~origin ~seq in
  reconstruct ~use_intra:config.use_intra ~use_inter:config.use_inter
    ~provenance:config.provenance (records rows ~origin ~seq) ~origin ~seq
    ~sink
    ~source:(Index (Logsys.Arena.Packets.arena packets, rows))

(* A snapshot's rows map back to its own records. *)
let snapshot_records collected _rows ~origin ~seq =
  Logsys.Collected.packet_records collected ~origin ~seq

let packet ?(use_intra = true) ?(use_inter = true) ?(provenance = false)
    collected ~origin ~seq ~sink =
  traced ~origin ~seq (fun () ->
      indexed
        ~config:{ Config.default with use_intra; use_inter; provenance }
        (Logsys.Collected.packets collected)
        ~records:(snapshot_records collected) ~sink ~origin ~seq)

(* The batch skeleton behind [run] and [run_arena]: every packet of the
   index, in key order; the index is built before any worker starts and
   read-only afterwards. *)
let run_index (config : Config.t) packets ~records ~sink ~emit =
  Obs.Span.with_ ~name:"refill.reconstruct_all" (fun () ->
      let keys = Array.of_list (Logsys.Arena.Packets.keys packets) in
      let packet_of (origin, seq) =
        traced ~origin ~seq (fun () ->
            indexed ~config packets ~records ~sink ~origin ~seq)
      in
      let jobs =
        match config.jobs with Some j -> max 1 j | None -> Par.default_jobs ()
      in
      (* Small workloads aren't worth a domain spawn. *)
      if jobs <= 1 || Array.length keys < Par.min_parallel_items then
        Array.iter (fun key -> emit (packet_of key)) keys
      else Array.iter emit (Par.map_array ~jobs packet_of keys))

let run ?(config = Config.default) collected ~sink ~emit =
  run_index config (Logsys.Collected.packets collected)
    ~records:(snapshot_records collected) ~sink ~emit

(* Rows materialize once per packet: the packer stores every record as an
   event payload anyway. *)
let run_arena ?(config = Config.default) packets ~sink ~emit =
  let arena = Logsys.Arena.Packets.arena packets in
  run_index config packets
    ~records:(fun rows ~origin:_ ~seq:_ -> Array.map (Logsys.Arena.get arena) rows)
    ~sink ~emit

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

