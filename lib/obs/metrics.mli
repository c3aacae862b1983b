(** A tiny process-wide metrics registry: counters, gauges, and fixed
    log-scale-bucket histograms, dumpable as Prometheus-style text or JSON.

    Metrics are interned by [(name, labels)]: calling [v] twice with the same
    identity returns the same instrument.  Instruments are registered
    (usually at module initialization) from any domain, and any domain or
    thread may update and dump them: registration and dumps take the
    registry's mutex.  Counters and gauges are atomics, and each
    histogram keeps its buckets and sum under its own mutex, so a dump reads
    every histogram in one step and its [_count] is its [+Inf] bucket. *)

type registry

val default_registry : registry
(** Where library-level instruments live. *)

val create_registry : unit -> registry
(** A private registry (tests). *)

val reset : registry -> unit
(** Zero every registered instrument; registrations are kept. *)

module Counter : sig
  type t

  val v :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    t
  (** Find-or-create.  Raises [Invalid_argument] on a malformed name or if
      the name is already registered as a different instrument kind. *)

  val inc : ?by:int -> t -> unit
  (** [by] defaults to 1; negative [by] raises [Invalid_argument]. *)

  val add : t -> int -> unit
  (** [inc ~by] without the optional-argument allocation — for flush paths
      that publish per-run tallies once per packet.  Negative amounts
      raise [Invalid_argument]. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val v :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  val log_buckets : lo:float -> hi:float -> factor:float -> float array
  (** Geometric upper bounds [lo, lo*factor, ...] up to and including the
      first bound >= [hi]. *)

  val default_buckets : float array
  (** Factor-2 bounds from 1e-6 to ~1.6e4 — wide enough for both seconds
      and small integer quantities (depths, counts). *)

  val v :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    ?buckets:float array ->
    string ->
    t
  (** [buckets] (default [default_buckets]) must be strictly increasing; it
      is only consulted on first registration. *)

  val observe : t -> float -> unit

  val observe_n : t -> float -> int -> unit
  (** [observe_n h x times] records [times] observations of [x] in one
      bucket update — what batched flushes (e.g. the engine's run-local
      tallies) use instead of a per-observation loop. No-op when
      [times <= 0]. *)

  val observe_int_n : t -> int -> int -> unit

  val count : t -> int

  val sum : t -> float

  val bucket_counts : t -> (float * int) list
  (** Cumulative counts per upper bound, Prometheus-style; the final entry
      is [(infinity, count t)]. *)
end

val prometheus_content_type : string
(** The [Content-Type] an HTTP endpoint must send with
    {!dump_prometheus} output
    ([text/plain; version=0.0.4; charset=utf-8]). *)

val dump_prometheus : ?registry:registry -> unit -> string
(** Deterministic (name-sorted) Prometheus text exposition. *)

val to_json : ?registry:registry -> unit -> Json.t

val dump_json : ?registry:registry -> unit -> string
