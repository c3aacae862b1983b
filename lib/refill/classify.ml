type verdict = {
  cause : Logsys.Cause.t;
  loss_node : int option;
  next_hop : int option;
}

let no_loss cause = { cause; loss_node = None; next_hop = None }

let at cause node = { cause; loss_node = Some node; next_hop = None }

let peer_of (i : Flow.item) =
  match i.payload with
  | Some r -> (
      match Logsys.Record.peer r with
      | Some p when p <> Protocol.unknown_node -> Some p
      | Some _ | None -> None)
  | None -> None

let find_entered items state =
  List.find_opt (fun (i : Flow.item) -> i.entered = state) items

(* Index and item of the flow's last [holding] entry: the packet's final
   holder. *)
let last_holder items =
  List.fold_left
    (fun (idx, best) (i : Flow.item) ->
      let idx = idx + 1 in
      if i.entered = Protocol.holding then (idx, Some (idx, i))
      else (idx, best))
    (-1, None) items
  |> snd

(* The holder's state progression after it (re-)took the packet. *)
let final_state_of items ~node ~from_idx =
  List.fold_left
    (fun (idx, state, last) (i : Flow.item) ->
      let idx = idx + 1 in
      if idx >= from_idx && i.node = node then (idx, i.entered, Some i)
      else (idx, state, last))
    (-1, Protocol.holding, None)
    items
  |> fun (_, state, last) -> (state, last)

let classify (flow : Flow.t) =
  let items = flow.items in
  match find_entered items Protocol.delivered with
  | Some _ -> no_loss Logsys.Cause.Delivered
  | None -> (
      match find_entered items Protocol.dup_dropped with
      | Some i -> at Logsys.Cause.Duplicate_loss i.node
      | None -> (
          match find_entered items Protocol.overflow_dropped with
          | Some i -> at Logsys.Cause.Overflow_loss i.node
          | None -> (
              match last_holder items with
              | None -> no_loss Logsys.Cause.Unknown
              | Some (idx, holder_item) -> (
                  let node = holder_item.node in
                  let state, last = final_state_of items ~node ~from_idx:idx in
                  if state = Protocol.holding then
                    if holder_item.label = Protocol.L_gen then
                      no_loss Logsys.Cause.Unknown
                    else if holder_item.inferred then
                      at Logsys.Cause.Acked_loss node
                    else at Logsys.Cause.Received_loss node
                  else if state = Protocol.sent || state = Protocol.timed_out
                  then
                    {
                      cause = Logsys.Cause.Timeout_loss;
                      loss_node = Some node;
                      next_hop = Option.bind last peer_of;
                    }
                  else if state = Protocol.acked then
                    (* The ACK was logged but the receiver could not even be
                       identified; blame the peer when known. *)
                    match Option.bind last peer_of with
                    | Some p -> at Logsys.Cause.Acked_loss p
                    | None -> at Logsys.Cause.Acked_loss node
                  else no_loss Logsys.Cause.Unknown))))

let is_delivered flow = (classify flow).cause = Logsys.Cause.Delivered
