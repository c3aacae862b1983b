type t = {
  total_losses : int;
  server_outage : float;
  received_total : float;
  received_sink : float;
  received_other : float;
  acked_total : float;
  acked_sink : float;
  acked_other : float;
  duplicate : float;
  timeout : float;
  overflow : float;
  unknown : float;
}

type counts = {
  mutable n : int;
  mutable server : int;
  mutable recv_sink : int;
  mutable recv_other : int;
  mutable ack_sink : int;
  mutable ack_other : int;
  mutable dup : int;
  mutable tmo : int;
  mutable ovf : int;
  mutable unk : int;
}

let fresh () =
  {
    n = 0;
    server = 0;
    recv_sink = 0;
    recv_other = 0;
    ack_sink = 0;
    ack_other = 0;
    dup = 0;
    tmo = 0;
    ovf = 0;
    unk = 0;
  }

let tally c ~sink (cause : Logsys.Cause.t) (loss_node : int option) =
  c.n <- c.n + 1;
  let at_sink = loss_node = Some sink in
  match cause with
  | Server_outage_loss -> c.server <- c.server + 1
  | Received_loss ->
      if at_sink then c.recv_sink <- c.recv_sink + 1
      else c.recv_other <- c.recv_other + 1
  | Acked_loss ->
      if at_sink then c.ack_sink <- c.ack_sink + 1
      else c.ack_other <- c.ack_other + 1
  | Duplicate_loss -> c.dup <- c.dup + 1
  | Timeout_loss -> c.tmo <- c.tmo + 1
  | Overflow_loss -> c.ovf <- c.ovf + 1
  | Delivered | Unknown -> c.unk <- c.unk + 1

let finish c =
  let r x = Prelude.Stats.ratio x c.n in
  {
    total_losses = c.n;
    server_outage = r c.server;
    received_total = r (c.recv_sink + c.recv_other);
    received_sink = r c.recv_sink;
    received_other = r c.recv_other;
    acked_total = r (c.ack_sink + c.ack_other);
    acked_sink = r c.ack_sink;
    acked_other = r c.ack_other;
    duplicate = r c.dup;
    timeout = r c.tmo;
    overflow = r c.ovf;
    unknown = r c.unk;
  }

let of_pipeline (pipeline : Pipeline.t) =
  let sink = pipeline.scenario.sink in
  let c = fresh () in
  List.iter
    (fun (key, _) ->
      match Pipeline.verdict_of pipeline key with
      | Some (v : Refill.Classify.verdict) ->
          tally c ~sink v.cause v.loss_node
      | None -> tally c ~sink Logsys.Cause.Unknown None)
    pipeline.loss_times;
  finish c

let of_truth truth ~sink =
  let c = fresh () in
  Logsys.Truth.iter truth (fun _ fate ->
      if not (Logsys.Cause.equal fate.cause Logsys.Cause.Delivered) then
        tally c ~sink fate.cause fate.loss_node);
  finish c

let paper =
  {
    total_losses = 0;
    server_outage = 0.226;
    received_total = 0.322;
    received_sink = 0.200;
    received_other = 0.122;
    acked_total = 0.386;
    acked_sink = 0.380;
    acked_other = 0.006;
    duplicate = 0.003;
    timeout = 0.008;
    overflow = 0.011;
    unknown = 0.044;
  }

let rows t =
  [
    ("server-outage", 100. *. t.server_outage);
    ("received (total)", 100. *. t.received_total);
    ("received @sink", 100. *. t.received_sink);
    ("received @other", 100. *. t.received_other);
    ("acked (total)", 100. *. t.acked_total);
    ("acked @sink", 100. *. t.acked_sink);
    ("acked @other", 100. *. t.acked_other);
    ("duplicate", 100. *. t.duplicate);
    ("timeout", 100. *. t.timeout);
    ("overflow", 100. *. t.overflow);
    ("unknown", 100. *. t.unknown);
  ]
