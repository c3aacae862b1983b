(** One record for the pipeline options that used to be threaded as
    scattered optional arguments ([?use_intra], [?use_inter], [?jobs]) plus
    the streaming knobs, so every entry point — batch {!Reconstruct.run},
    streaming {!Stream}, and the CLI — speaks the same configuration
    language. *)

type t = {
  use_intra : bool;
      (** Enable the intra-node shortcut transitions (§IV.B ablation
          knob). *)
  use_inter : bool;
      (** Enable the inter-node prerequisite connections. *)
  jobs : int option;
      (** Domain fan-out cap for parallel stages; [None] =
          {!Par.default_jobs}. *)
  watermark : int;
      (** Streaming only: a frontier packet is evicted once this many
          records have been processed since its last record arrived. *)
  chunk_events : int;
      (** Streaming only: segment size (records per {!Stream.feed_arena} call)
          used by readers that chunk an input stream. *)
  provenance : bool;
      (** Collect per-event {!Provenance.t} side-car arrays
          ({!Flow.t.prov}).  Off by default: the pipeline then allocates
          nothing for provenance. *)
  shards : int;
      (** Streaming only: how many shards {!Stream} splits the frontier
          into.  Shard 0 runs in the caller's domain and each other shard
          on a worker domain, so [n] shards start [n - 1] workers; every
          {!Stream.feed_arena} is one round that waits for all of them. *)
  late_retention : int option;
      (** Streaming only: how many records past a packet's eviction
          trigger a returning fragment is still recognized as a late
          fragment of that packet.  Older evicted keys are forgotten (and
          counted), which bounds the evicted-key table.  [None] =
          [4 * watermark]. *)
}

val default : t
(** [use_intra = true], [use_inter = true], [jobs = None],
    [watermark = 50_000], [chunk_events = 4096], [provenance = false],
    [shards = 1], [late_retention = None]. *)

(** {2 Building a configuration}

    Name only the knobs you change with a record update,
    [{ Config.default with watermark = 1000 }]; the CLI goes through
    {!of_options}. *)

val with_shards : int -> t -> t
(** [with_shards n t] is [{ t with shards = n }]. *)

val of_options :
  ?use_intra:bool ->
  ?use_inter:bool ->
  ?jobs:int option ->
  ?watermark:int ->
  ?chunk_events:int ->
  ?provenance:bool ->
  ?shards:int ->
  ?late_retention:int option ->
  unit ->
  (t, Error.t) result
(** The single CLI-facing parser: every omitted argument keeps its
    {!default}, the result passes {!validate}.  [reconstruct], [analyze],
    and [serve] all build their configuration through this, so an
    out-of-range value maps onto the same {!Error.Invalid_config} exit
    code everywhere. *)

val resolved_retention : t -> int
(** The effective late-fragment retention window: [late_retention] when
    set, otherwise [4 * watermark] (saturating). *)

val validate : t -> (t, Error.t) result
(** [Error (Invalid_config _)] when [watermark <= 0], [chunk_events <= 0],
    [shards <= 0], [jobs = Some j] with [j <= 0], or
    [late_retention = Some r] with [r < 0]. *)
