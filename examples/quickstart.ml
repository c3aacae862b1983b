(* Quickstart: reconstruct a packet's event flow from hand-written lossy
   logs — the Table II scenario of the paper, in ~40 lines of API.

   Run with: dune exec examples/quickstart.exe
*)

(* An event record is (node where logged, what happened, packet identity).
   [true_time]/[gseq] are simulator ground-truth fields; for hand-written
   logs they can be zeroed — REFILL never reads them. *)
let record node kind : Logsys.Record.t =
  { node; kind; origin = 1; pkt_seq = 0; true_time = 0.; gseq = 0 }

let () =
  (* The surviving log records of one packet: node 1 transmitted to node 2
     and saw an ACK... and that is ALL we have — node 2's log was lost, and
     node 3 only logged the reception from node 2. *)
  let surviving_records =
    [
      record 1 (Trans { to_ = 2 });
      record 1 (Ack_recvd { to_ = 2 });
      record 3 (Recv { from = 2 });
    ]
  in

  (* Run the connected inference engines over this packet (origin = node
     1; node 99 stands in for a sink that never saw the packet): logged
     events fire transitions; gaps are bridged by inferring the lost
     events (shown in [brackets]). *)
  let flow =
    Refill.Reconstruct.of_records
      (Array.of_list surviving_records)
      ~origin:1 ~seq:0 ~sink:99
  in

  Printf.printf "surviving records : %s\n"
    (String.concat ", " (List.map Logsys.Record.to_string surviving_records));
  Printf.printf "reconstructed flow: %s\n" (Refill.Flow.to_string flow);
  Printf.printf "inferred events   : %d of %d\n"
    flow.stats.emitted_inferred
    (Refill.Flow.length flow);
  Printf.printf "packet path       : %s\n"
    (String.concat " -> "
       (List.map string_of_int (Refill.Flow.nodes_visited flow)));

  (* Where did the packet die, and why? *)
  let verdict = Refill.Classify.classify flow in
  Printf.printf "verdict           : %s%s\n"
    (Logsys.Cause.name verdict.cause)
    (match verdict.loss_node with
    | Some n -> Printf.sprintf " at node %d" n
    | None -> "")
