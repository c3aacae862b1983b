(** Cause composition over the study period (Fig. 6).

    Per-day shares of each loss cause among that day's lost packets.  The
    paper's storyline: acked and received losses dominate (the sink's
    serial link) until the day-23 fix; days 9–10 spike from snow; server
    outages appear as their own band. *)

val tracked_causes : Logsys.Cause.t list
(** The causes a day's shares are reported over: every loss cause plus
    [Unknown], in display order. *)

type day_row = {
  day : int;
  total_losses : int;
  shares : (Logsys.Cause.t * float) list;
      (** Per loss cause (plus [Unknown]), summing to 1 for nonempty days. *)
}

val per_day : Pipeline.t -> day_row list
(** One row per scenario day; losses are dated by their estimated loss
    time. *)

val losses_per_day : Pipeline.t -> int array
(** Daily loss counts (for the snow-spike and post-fix-drop checks). *)

