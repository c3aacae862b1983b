(** The full §V diagnosis narrative as one reusable report.

    Aggregates everything an operator would ask of REFILL's output: network
    health, the who-vs-where contrast (Figs. 4/5), the sink story (Fig. 8),
    the cause breakdown (Fig. 9), latency/retransmission profiles, and the
    per-day trend (Fig. 6).  Consumed by the CLI and the examples. *)

type t = {
  packets : int;
  delivery_rate : float;  (** Fraction of packets that reached the server. *)
  retransmission_factor : float;
  delay : Prelude.Stats.summary option;
  distinct_sources : int;
  distinct_positions : int;
  top3_position_share : float;
  sink_received_share : float;
  breakdown : Breakdown.t;
  daily_losses : int array;
}

val build : Pipeline.t -> t

val to_string : t -> string
(** Multi-line operator-facing report. *)

