(* Per-packet tracing in a simulated multihop network (§V.B's use case:
   "REFILL provides detailed per-packet tracing information based on event
   flows").

   Simulates a 2-day CitySee slice, picks a few packets with interesting
   fates, and prints each one's reconstructed flow, hop path, and loss
   verdict next to the simulator's ground truth.

   Run with: dune exec examples/packet_tracing.exe
*)

let print_trace collected truth ~sink (origin, seq) =
  let flow =
    Refill.Reconstruct.packet (Logsys.Collected.packets collected) ~origin
      ~seq ~sink
  in
  let verdict = Refill.Classify.classify flow in
  Printf.printf "packet (origin %d, seq %d)\n" origin seq;
  Printf.printf "  flow   : %s\n" (Refill.Flow.to_string flow);
  Printf.printf "  path   : %s\n"
    (String.concat " -> "
       (List.map string_of_int (Refill.Flow.nodes_visited flow)));
  Printf.printf "  verdict: %s%s\n"
    (Logsys.Cause.name verdict.cause)
    (match verdict.loss_node with
    | Some n -> Printf.sprintf " at node %d" n
    | None -> "");
  (match Logsys.Truth.find truth ~origin ~seq with
  | Some fate ->
      Printf.printf "  truth  : %s%s (path %s)\n"
        (Logsys.Cause.name fate.cause)
        (match fate.loss_node with
        | Some n -> Printf.sprintf " at node %d" n
        | None -> "")
        (String.concat " -> " (List.map string_of_int fate.path))
  | None -> ());
  print_newline ()

let () =
  print_endline "simulating a 2-day, 100-node CitySee slice...";
  let scenario = Scenario.Citysee.run Scenario.Citysee.two_day in
  let truth = Node.Network.truth scenario.network in
  (* Collect logs with the realistic loss model: some records are gone. *)
  let collected =
    Scenario.Citysee.collected_lossy scenario Logsys.Loss_model.default
  in
  Printf.printf "%d packets generated; %d log records survived collection\n\n"
    (Node.Network.packets_generated scenario.network)
    (Logsys.Collected.total collected);

  (* Pick one packet per interesting fate. *)
  let pick cause =
    Logsys.Truth.fold truth ~init:None ~f:(fun acc key fate ->
        if acc = None && Logsys.Cause.equal fate.cause cause then Some key
        else acc)
  in
  let interesting =
    List.filter_map pick
      [
        Logsys.Cause.Delivered;
        Logsys.Cause.Timeout_loss;
        Logsys.Cause.Received_loss;
        Logsys.Cause.Acked_loss;
        Logsys.Cause.Duplicate_loss;
      ]
  in
  List.iter (print_trace collected truth ~sink:scenario.sink) interesting;

  (* Aggregate: longest reconstructed path, average inference per flow. *)
  let flows_rev = ref [] in
  Refill.Reconstruct.run collected ~sink:scenario.sink ~emit:(fun f ->
      flows_rev := f :: !flows_rev);
  let flows = List.rev !flows_rev in
  let longest =
    List.fold_left
      (fun best (f : Refill.Flow.t) ->
        let len = List.length (Refill.Flow.nodes_visited f) in
        match best with
        | Some (_, best_len) when best_len >= len -> best
        | _ -> Some (f, len))
      None flows
  in
  (match longest with
  | Some (f, len) ->
      Printf.printf "longest reconstructed path: %d hops (packet %d,%d)\n" len
        f.origin f.seq
  | None -> ());
  let summary = Refill.Reconstruct.summarize flows in
  Printf.printf
    "across all %d packets: %d logged events consumed, %d lost events \
     inferred\n"
    summary.packets summary.logged_events summary.inferred_events
