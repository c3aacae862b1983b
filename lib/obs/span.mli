(** Nested timed spans over the process-wide trace sink.

    With the default {!Sink.null} installed, [with_] is one branch and a
    closure call — instrumented hot paths cost nothing when tracing is off.
    With a memory or file sink, each span is emitted as a Chrome
    [trace_event] complete ('X') event at exit, so nesting is recovered by
    timestamp containment within each domain's row ({!tid}). *)

val set_sink : Sink.t -> unit
(** Install the sink spans report to (replacing the previous one, which is
    NOT closed — use {!swap_sink} when the previous sink must be
    finalized). *)

val swap_sink : Sink.t -> Sink.t
(** Install a sink and return the one it replaced, so the caller can
    {!Sink.close} it — the leak-free replacement for {!set_sink}. *)

val sink : unit -> Sink.t

val enabled : unit -> bool
(** [false] iff the null sink is installed. *)

val tid : unit -> int
(** The calling domain's trace row: its id plus one, so the main domain's
    spans are on tid 1 and each worker domain's on a row of its own. *)

val with_ :
  ?cat:string -> ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f], timing it as a span.  The span is emitted
    even if [f] raises (the exception is re-raised). *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val now_us : unit -> float
(** The trace clock: wall microseconds since process start. *)
