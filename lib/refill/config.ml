type t = {
  use_intra : bool;
  use_inter : bool;
  jobs : int option;
  watermark : int;
  chunk_events : int;
  provenance : bool;
  shards : int;
  late_retention : int option;
}

let default =
  {
    use_intra = true;
    use_inter = true;
    jobs = None;
    watermark = 50_000;
    chunk_events = 4096;
    provenance = false;
    shards = 1;
    late_retention = None;
  }

(* The default retention window: long enough that a straggler arriving a
   few eviction lifetimes late is still recognized, short enough that the
   evicted-key table stays a small multiple of the live frontier.  Guards
   against overflow for the "effectively infinite" watermarks tests use. *)
let resolved_retention t =
  match t.late_retention with
  | Some r -> r
  | None -> if t.watermark >= max_int / 4 then max_int else 4 * t.watermark

let with_shards shards t = { t with shards }

let validate t =
  if t.watermark <= 0 then
    Error (Error.Invalid_config "watermark must be positive")
  else if t.chunk_events <= 0 then
    Error (Error.Invalid_config "chunk-events must be positive")
  else if t.shards <= 0 then
    Error (Error.Invalid_config "shards must be positive")
  else
    match (t.jobs, t.late_retention) with
    | Some j, _ when j <= 0 ->
        Error (Error.Invalid_config "jobs must be positive")
    | _, Some r when r < 0 ->
        Error (Error.Invalid_config "late-retention must be non-negative")
    | _ -> Ok t

(* The one option parser behind every CLI entry point (`reconstruct`,
   `analyze`, `serve`): optional arguments mirror the flags, unnamed knobs
   keep their defaults, and the result is already validated — so flag
   plumbing cannot drift between subcommands. *)
let of_options ?use_intra ?use_inter ?jobs ?watermark ?chunk_events
    ?provenance ?shards ?late_retention () =
  let opt v d = Option.value v ~default:d in
  validate
    {
      use_intra = opt use_intra default.use_intra;
      use_inter = opt use_inter default.use_inter;
      jobs = (match jobs with Some j -> j | None -> default.jobs);
      watermark = opt watermark default.watermark;
      chunk_events = opt chunk_events default.chunk_events;
      provenance = opt provenance default.provenance;
      shards = opt shards default.shards;
      late_retention =
        (match late_retention with
        | Some r -> r
        | None -> default.late_retention);
    }
