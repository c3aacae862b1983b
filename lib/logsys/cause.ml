type t =
  | Delivered
  | Timeout_loss
  | Duplicate_loss
  | Overflow_loss
  | Received_loss
  | Acked_loss
  | Server_outage_loss
  | Unknown

let all =
  [
    Delivered;
    Timeout_loss;
    Duplicate_loss;
    Overflow_loss;
    Received_loss;
    Acked_loss;
    Server_outage_loss;
    Unknown;
  ]

let name = function
  | Delivered -> "delivered"
  | Timeout_loss -> "timeout"
  | Duplicate_loss -> "duplicate"
  | Overflow_loss -> "overflow"
  | Received_loss -> "received"
  | Acked_loss -> "acked"
  | Server_outage_loss -> "server-outage"
  | Unknown -> "unknown"

let of_name s = List.find_opt (fun c -> name c = s) all

let loss_causes =
  List.filter (function Delivered | Unknown -> false | _ -> true) all

let equal a b = a = b

let compare a b = Stdlib.compare a b

let is_loss = function Delivered | Unknown -> false | _ -> true
