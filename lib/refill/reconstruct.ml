module Obs = Refill_obs

let h_latency =
  Obs.Metrics.Histogram.v "refill_packet_latency_seconds"
    ~help:"Wall time to reconstruct one packet's event flow."

let c_packets =
  Obs.Metrics.Counter.v "refill_packets_reconstructed_total"
    ~help:"Packets run through the reconstruction engines."

(* Item rows from the engine's source side-car: a logged item's row is
   the id of the row it logs. *)
let map_sources sources len ids =
  let rows = Array.make len (-1) in
  for k = 0 to len - 1 do
    let s = Array.unsafe_get sources k in
    if s >= 0 then rows.(k) <- ids.(s)
  done;
  rows

let of_rows ?(use_intra = true) ?(use_inter = true) ?(provenance = false)
    arena rows ~ids ~keep_arena ~origin ~seq ~sink =
  let t0 = Obs.Span.now_us () in
  let input =
    match Protocol.pack_events arena rows ~origin ~sink with
    | Engine.Packed p when not use_inter ->
        (* Empty arrays route every event through the nulled closure. *)
        Engine.Packed { p with pre_nodes = [||]; pre_states = [||] }
    | input -> input
  in
  let config = Protocol.config arena rows ~origin ~sink in
  let config =
    if use_inter then config
    else { config with prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []) }
  in
  let b = Flow.Builder.get () in
  let prov = ref [||] and item_rows = ref [||] in
  let prov_out =
    if provenance then Some (fun buf len -> prov := Array.sub buf 0 len)
    else None
  in
  let stats =
    Engine.process ~use_intra ?prov_out
      ~src_out:(fun sources len -> item_rows := map_sources sources len ids)
      config input ~emit:(Flow.Builder.push b)
  in
  Obs.Metrics.Counter.inc c_packets;
  Obs.Metrics.Histogram.observe h_latency ((Obs.Span.now_us () -. t0) /. 1e6);
  Flow.Builder.finish b ~origin ~seq ~stats ~prov:!prov ~rows:!item_rows
    (if keep_arena then Some arena else None)

(* One span per packet when tracing is on; free otherwise. *)
let traced ~origin ~seq f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.packet"
      ~attrs:[ ("origin", string_of_int origin); ("seq", string_of_int seq) ]
      f
  else f ()

(* One packet of an index: its rows, each logged item named by its row,
   and payloads left in the index's arena. *)
let packet ?use_intra ?use_inter ?provenance packets ~origin ~seq ~sink =
  traced ~origin ~seq (fun () ->
      let rows = Logsys.Arena.Packets.packet_rows packets ~origin ~seq in
      of_rows ?use_intra ?use_inter ?provenance
        (Logsys.Arena.Packets.arena packets)
        rows ~ids:rows ~keep_arena:true ~origin ~seq ~sink)

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
        packet ~use_intra:config.use_intra ~use_inter:config.use_inter
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

