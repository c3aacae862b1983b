type verdict = {
  cause : Logsys.Cause.t;
  loss_node : int option;
  next_hop : int option;
}

let no_loss cause = { cause; loss_node = None; next_hop = None }

let at cause node = { cause; loss_node = Some node; next_hop = None }

(* Everything here reads the flow's packed items by index; nothing builds
   the item view. *)
let peer_of flow k =
  match Flow.peer flow k with
  | Some p when p <> Protocol.unknown_node -> Some p
  | Some _ | None -> None

let classify (flow : Flow.t) =
  if Flow.find_entered flow Protocol.delivered >= 0 then
    no_loss Logsys.Cause.Delivered
  else
    let k = Flow.find_entered flow Protocol.dup_dropped in
    if k >= 0 then at Logsys.Cause.Duplicate_loss (Flow.node flow k)
    else
      let k = Flow.find_entered flow Protocol.overflow_dropped in
      if k >= 0 then at Logsys.Cause.Overflow_loss (Flow.node flow k)
      else
        (* The flow's last [holding] entry: the packet's final holder. *)
        let holder = Flow.rfind_entered flow Protocol.holding in
        if holder < 0 then no_loss Logsys.Cause.Unknown
        else begin
          let node = Flow.node flow holder in
          (* The holder's state progression after it (re-)took the
             packet ends at its last item, the holder itself at least. *)
          let last = Flow.rfind_node flow node ~from:holder in
          let state = Flow.entered flow last in
          if state = Protocol.holding then
            if Flow.label flow holder = Protocol.L_gen then
              no_loss Logsys.Cause.Unknown
            else if Flow.inferred flow holder then
              at Logsys.Cause.Acked_loss node
            else at Logsys.Cause.Received_loss node
          else if state = Protocol.sent || state = Protocol.timed_out then
            {
              cause = Logsys.Cause.Timeout_loss;
              loss_node = Some node;
              next_hop = peer_of flow last;
            }
          else if state = Protocol.acked then
            (* The ACK was logged but the receiver could not even be
               identified; blame the peer when known. *)
            match peer_of flow last with
            | Some p -> at Logsys.Cause.Acked_loss p
            | None -> at Logsys.Cause.Acked_loss node
          else no_loss Logsys.Cause.Unknown
        end

let is_delivered flow = (classify flow).cause = Logsys.Cause.Delivered
