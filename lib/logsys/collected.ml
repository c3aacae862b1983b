(* The per-packet view is an [Arena.Packets] index over a node-major
   arena copy of the snapshot, built once on first use.  Arena row [i] is
   [flat.(i)] — the snapshot's own record, so a packet's rows map back to
   records with one array read each, and flows keep pointing at the
   snapshot instead of at fresh copies. *)
type index = { packets : Arena.Packets.t; flat : Record.t array }

type t = { node_logs : Record.t array array; mutable index : index option }

let of_node_logs node_logs = { node_logs; index = None }

let memo t =
  match t.index with
  | Some idx -> idx
  | None ->
      let flat = Array.concat (Array.to_list t.node_logs) in
      (* [Arena.Packets.build] rejects zero nodes; an empty snapshot
         indexes the same nothing over one node. *)
      let n_nodes = max 1 (Array.length t.node_logs) in
      let packets = Arena.Packets.build (Arena.of_records flat) ~n_nodes in
      let idx = { packets; flat } in
      t.index <- Some idx;
      idx

let packets t = (memo t).packets

let of_logger logger =
  of_node_logs
    (Array.init (Logger.n_nodes logger) (fun i -> Logger.node_log logger i))

let lossify config rng t =
  of_node_logs (Loss_model.apply_all config rng t.node_logs)

let n_nodes t = Array.length t.node_logs

let node_log t i = t.node_logs.(i)

let total t = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.node_logs

let packet_keys t = Arena.Packets.keys (packets t)

let packet_records t ~origin ~seq =
  let { packets; flat } = memo t in
  Array.map (Array.get flat) (Arena.Packets.packet_rows packets ~origin ~seq)

let events_of_packet t ~origin ~seq =
  (* Derive the per-node groups from the flat record array: records are in
     node-scan order, so groups are the maximal same-node runs. *)
  let arr = packet_records t ~origin ~seq in
  let n = Array.length arr in
  let rec groups_from i =
    if i >= n then []
    else begin
      let node = arr.(i).Record.node in
      let j = ref i in
      while !j < n && arr.(!j).Record.node = node do incr j done;
      let rec run k = if k >= !j then [] else arr.(k) :: run (k + 1) in
      (node, run i) :: groups_from !j
    end
  in
  groups_from 0

let merged_concat t =
  Array.to_list t.node_logs |> List.concat_map Array.to_list

let merged_by_time t =
  let out = Array.concat (Array.to_list t.node_logs) in
  (* Stable sort: records with equal (true_time, gseq) keys keep node-scan
     order, so each node's local write order survives the merge. *)
  Array.stable_sort Record.compare_by_time out;
  out

let merged_round_robin t =
  let positions = Array.map (fun _ -> ref 0) t.node_logs in
  let out = ref [] in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iteri
      (fun i log ->
        let pos = positions.(i) in
        if !pos < Array.length log then begin
          out := log.(!pos) :: !out;
          incr pos;
          progressed := true
        end)
      t.node_logs
  done;
  List.rev !out
