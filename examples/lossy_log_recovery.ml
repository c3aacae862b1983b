(* How much log can REFILL lose and still reconstruct the story?

   Takes one real multihop packet from a simulation, then destroys ever
   larger portions of the network's logs and shows what the reconstruction
   still recovers — the event flow shrinks gracefully from "fully logged"
   to "almost fully inferred", while the naive analyzer falls over
   immediately.

   Run with: dune exec examples/lossy_log_recovery.exe
*)

let find_long_delivered truth =
  Logsys.Truth.fold truth ~init:None ~f:(fun acc key (fate : Logsys.Truth.fate) ->
      let len = List.length fate.path in
      match (acc, fate.cause) with
      | Some (_, best), Logsys.Cause.Delivered when len <= best -> acc
      | _, Logsys.Cause.Delivered -> Some (key, len)
      | _ -> acc)

let () =
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let truth = Node.Network.truth scenario.network in
  let collected = Scenario.Citysee.collected scenario in
  let (origin, seq), hops =
    match find_long_delivered truth with
    | Some (key, len) -> (key, len)
    | None -> failwith "no delivered packet found"
  in
  Printf.printf "chosen packet: origin %d, seq %d (%d-hop delivery)\n\n"
    origin seq hops;

  let show_at loss_rate =
    let rng = Prelude.Rng.create ~seed:31337L in
    let lossy =
      Logsys.Collected.lossify (Logsys.Loss_model.uniform loss_rate) rng
        collected
    in
    let flow =
      Refill.Reconstruct.packet
        (Logsys.Collected.packets lossy)
        ~origin ~seq ~sink:scenario.sink
    in
    let verdict = Refill.Classify.classify flow in
    let naive =
      Baseline.Naive.classify lossy ~origin ~seq ~sink:scenario.sink
    in
    Printf.printf "-- %.0f%% of all log records destroyed --\n"
      (100. *. loss_rate);
    Printf.printf "flow  : %s\n" (Refill.Flow.to_string flow);
    Printf.printf
      "refill: %d logged + %d inferred events, path %s, verdict %s\n"
      (List.length (Refill.Flow.logged_items flow))
      (List.length (Refill.Flow.inferred_items flow))
      (String.concat "->"
         (List.map string_of_int (Refill.Flow.nodes_visited flow)))
      (Logsys.Cause.name verdict.cause);
    Printf.printf "naive : verdict %s\n\n" (Logsys.Cause.name naive.cause)
  in
  List.iter show_at [ 0.0; 0.3; 0.6; 0.8 ];

  (* The same packet with ONLY the final-hop ack surviving: the cascading
     inference of Fig. 3(a) in the wild. *)
  let all_records =
    Logsys.Collected.events_of_packet collected ~origin ~seq
    |> List.concat_map snd
  in
  let last_ack =
    List.rev all_records
    |> List.find_opt (fun (r : Logsys.Record.t) ->
           match r.kind with Logsys.Record.Ack_recvd _ -> true | _ -> false)
  in
  match last_ack with
  | None -> ()
  | Some ack ->
      let flow =
        Refill.Reconstruct.of_records [| ack |] ~origin ~seq
          ~sink:scenario.sink
      in
      Printf.printf
        "-- everything destroyed except one ack record (%s) --\n"
        (Logsys.Record.to_string ack);
      Printf.printf "flow  : %s\n" (Refill.Flow.to_string flow);
      Printf.printf "%d events inferred from a single surviving record\n"
        flow.stats.emitted_inferred
