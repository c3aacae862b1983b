(** Trace-event sinks.  A sink receives the timed span events produced by
    {!Span} and either discards them (null), buffers them (memory), or
    streams them to a Chrome [trace_event]-format JSON file viewable in
    [chrome://tracing] / Perfetto.  Any domain may emit to a sink: a memory
    or file sink takes one event at a time under its own lock. *)

type event = {
  name : string;
  cat : string;
  ph : char;  (** ['X'] complete span, ['i'] instant event. *)
  ts_us : float;  (** Start timestamp, microseconds. *)
  dur_us : float;  (** Duration, microseconds; 0 for instants. *)
  tid : int;  (** The trace row: the emitting domain's id plus one. *)
  args : (string * string) list;
}

type t

val null : t
(** Swallows everything; the zero-cost default. *)

val is_null : t -> bool

val memory : unit -> t
(** Buffers events in memory; read them back with {!events}. *)

val file : string -> t
(** Streams events to [path] as they arrive; {!close} finalizes the JSON
    document.  Raises [Sys_error] if the file cannot be opened. *)

val emit : t -> event -> unit

val events : t -> event list
(** Buffered events in emission order (memory sinks; [[]] otherwise). *)

val close : t -> unit
(** Flush and close a file sink (idempotent); no-op for null/memory. *)

val event_to_json : event -> Json.t

val trace_json : event list -> Json.t
(** A complete [{"traceEvents": [...]}] document. *)
