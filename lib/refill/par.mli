(** Domain fan-out for embarrassingly parallel per-packet work.

    [map_array ~jobs f arr] preserves order: slot [i] of the result is
    [f arr.(i)] whichever domain computed it.  [f] must not touch shared
    mutable state other than [Refill_obs]'s metrics and spans, which any
    domain may write, and must only query {!Fsm.precompute}d FSMs.  If [f]
    raises, the first exception (in completion order) is re-raised with its
    backtrace after every helper domain has been joined; the remaining items
    are not mapped. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val min_parallel_items : int
(** Workloads smaller than this are not worth a domain spawn; callers fall
    back to the serial path below it. *)
