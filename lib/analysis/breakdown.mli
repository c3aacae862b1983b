(** The overall loss-cause breakdown (Fig. 9 / §V.C).

    Shares of each cause among all lost packets, with the received and
    acked buckets split into sink vs other nodes.  The paper reports:
    server outage 22.6 %, received 32.2 % (20.0 sink / 12.2 other),
    acked 38.6 % (38.0 sink / 0.6 other), duplicate 0.3 %, timeout 0.8 %,
    overflow 1.1 %. *)

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

val of_pipeline : Pipeline.t -> t
(** Shares over the packets missing from the server DB, as fractions in
    [\[0,1\]]. *)

val of_truth : Logsys.Truth.t -> sink:int -> t
(** Ground-truth shares, for the paper-vs-measured comparison. *)

val paper : t
(** The published §V.C numbers ([total_losses = 0] — unknown). *)

val rows : t -> (string * float) list
(** Percentage rows in display order, values in [\[0,100\]]. *)

