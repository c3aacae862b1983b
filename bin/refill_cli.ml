(* The `refill` command-line tool.

   Subcommands:
     simulate     run a CitySee-like deployment and dump the (lossy) collected
                  logs — with ground truth — to a file
     analyze      reconstruct event flows from a log dump and report loss
                  positions, causes, and accuracy against any embedded truth
     reconstruct  run the reconstruction pipeline alone, batch or streaming
                  (bounded memory, checkpoint/resume)
     trace        print one packet's reconstructed event flow
     explain      show why each event of one packet's flow is believed
                  (per-event provenance, text or JSON)
     figures      regenerate the paper's figures from a fresh simulation
     report       simulate a deployment and print the full diagnosis report
     check        statically analyze the protocol models
     serve        run a live TCP ingestion server on the streaming pipeline
     feed         send a log dump to a running `serve`
*)

open Cmdliner
module Obs = Refill_obs

(* -- Observability plumbing ------------------------------------------------- *)

type obs_opts = {
  metrics : string option;  (* "-" = stdout *)
  trace_out : string option;
  quiet : bool;
  verbose : bool;
}

let obs_opts_term =
  let metrics =
    let doc =
      "Dump a metrics snapshot after the command: Prometheus text to \
       $(docv) (stdout if $(docv) is '-' or omitted), or JSON if $(docv) \
       ends in .json."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let trace_out =
    let doc =
      "Record pipeline spans to $(docv) as Chrome trace_event JSON, one row \
       per domain (open in Perfetto or chrome://tracing)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show debug output.")
  in
  Term.(
    const (fun metrics trace_out quiet verbose ->
        { metrics; trace_out; quiet; verbose })
    $ metrics $ trace_out $ quiet $ verbose)

let dump_metrics = function
  | None -> ()
  | Some dest ->
      let text =
        if dest <> "-" && Filename.check_suffix dest ".json" then
          Obs.Metrics.dump_json () ^ "\n"
        else Obs.Metrics.dump_prometheus ()
      in
      if dest = "-" then print_string text
      else begin
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text);
        Obs.Log.info "metrics dump written to %s" dest
      end

(* One process-wide at_exit flush: whatever sink is still installed when
   the process ends gets finalized, so --trace-out files are complete
   valid JSON even on paths that bypass the normal teardown. *)
let () = at_exit (fun () -> Obs.Sink.close (Obs.Span.sink ()))

(* Every exit path funnels through here — normal return, pipeline
   exception, and the signal-driven server shutdown (whose handler makes
   `serve` return normally) — so a requested --metrics dump is never
   lost.  The trace sink is closed before dumping so span counters are
   final, and a dump failure on the error path must not mask the
   original error. *)
let with_metrics_flush opts f =
  let cleanup () = Obs.Sink.close (Obs.Span.swap_sink Obs.Sink.null) in
  let dump_metrics_guarded () =
    try dump_metrics opts.metrics
    with Sys_error msg -> Obs.Log.error "metrics dump failed: %s" msg
  in
  match f () with
  | code ->
      cleanup ();
      (match opts.trace_out with
      | Some path ->
          Obs.Log.info
            "trace written to %s (load it in Perfetto or chrome://tracing)"
            path
      | None -> ());
      dump_metrics opts.metrics;
      code
  | exception e ->
      cleanup ();
      dump_metrics_guarded ();
      raise e

(* The first line of a regular file; [None] for anything else (a FIFO or
   a terminal would block) or an unreadable file. *)
let first_line path =
  if
    path <> "-"
    && try (Unix.stat path).st_kind = S_REG with Unix.Unix_error _ -> false
  then
    try In_channel.with_open_bin path In_channel.input_line
    with Sys_error _ -> None
  else None

let is_dump path = first_line path = Some "# refill-log v1"

(* An optional-value flag takes the next word as its FILE, so
   `--provenance a.txt b.txt` names the dump a.txt as the report file:
   refuse to write over a dump or a checkpoint. *)
let clobbers_input (flag, dest) =
  match Option.bind dest first_line with
  | Some l
    when l = "# refill-log v1"
         || String.starts_with ~prefix:"# refill-stream-ckpt" l ->
      Some
        (Printf.sprintf
           "%s: a refill dump or checkpoint, not overwritten by %s (name the \
            report with %s=FILE, or put a bare %s after LOGFILE)"
           (Option.get dest) flag flag flag)
  | _ -> None

(* Install the requested log level and trace sink, run the command body
   under the metrics-flush wrapper, and turn unreadable/corrupt inputs
   into a clear message and a non-zero exit instead of an exception
   backtrace.  Nothing is read or written when a report FILE
   ([--metrics], or one of [outputs]) is a dump or a checkpoint. *)
let with_observability ?(outputs = []) opts f =
  Obs.Log.set_level
    (if opts.quiet then Obs.Log.Quiet
     else if opts.verbose then Obs.Log.Debug
     else Obs.Log.Info);
  match
    List.find_map clobbers_input (("--metrics", opts.metrics) :: outputs)
  with
  | Some msg ->
      Obs.Log.error "%s" msg;
      1
  | None -> (
      (match opts.trace_out with
      | Some path ->
          (* swap, then close: a sink left installed by an earlier install
             must be finalized, not leaked. *)
          Obs.Sink.close (Obs.Span.swap_sink (Obs.Sink.file path))
      | None -> ());
      match with_metrics_flush opts f with
      | code -> code
      | exception (Sys_error msg | Failure msg) ->
          Obs.Log.error "%s" msg;
          1)

(* Structured pipeline errors carry their own exit-code mapping
   (I/O and malformed input -> 1, bad configuration -> 2). *)
let err_exit e =
  Obs.Log.error "%s" (Refill.Error.message e);
  Refill.Error.exit_code e

(* -- Provenance / flow-quality plumbing ------------------------------------- *)

(* --provenance[=FILE]: bare flag prints the human scorecard summary;
   FILE writes the refill-quality-v1 JSON document ('-' = stdout). The
   empty string is the bare flag's sentinel (never a valid path). *)
let provenance_arg =
  let doc =
    "Collect per-event provenance and report flow-quality scorecards \
     (fraction inferred, mechanism mix, per-node and per-link loss \
     estimates).  With $(docv), write the full refill-quality-v1 JSON \
     document to $(docv) ('-' = stdout); bare $(opt) prints a human \
     summary."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "provenance" ] ~docv:"FILE" ~doc)

(* LOGFILE, the one positional of every command that reads a dump.  An
   optional-value flag right before it takes it as its FILE, so
   `analyze --provenance logs.txt` would have no LOGFILE: when LOGFILE is
   missing and [--provenance]'s or [--metrics]' value is a dump, that
   value is LOGFILE and the flag is bare.  Truly missing is cmdliner's
   usage error (exit 124). *)
let logfile_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"LOGFILE" ~doc:"Log dump produced by `refill simulate`.")

let recover_logfile obs provenance input =
  match input with
  | Some path -> `Ok (obs, provenance, path)
  | None -> (
      match provenance with
      | Some p when is_dump p -> `Ok (obs, Some "", p)
      | _ -> (
          match obs.metrics with
          | Some m when is_dump m ->
              `Ok ({ obs with metrics = Some "-" }, provenance, m)
          | _ -> `Error (true, "required argument LOGFILE is missing")))

(* Observability options, [--provenance] and LOGFILE, resolved together. *)
let obs_provenance_logfile =
  Term.(ret (const recover_logfile $ obs_opts_term $ provenance_arg $ logfile_arg))

(* Observability options and LOGFILE, for commands without [--provenance]. *)
let obs_logfile =
  Term.(
    ret
      (const (fun obs input ->
           match recover_logfile obs None input with
           | `Ok (obs, _, path) -> `Ok (obs, path)
           | `Error e -> `Error e)
      $ obs_opts_term $ logfile_arg))

let write_quality dest q =
  match dest with
  | "" -> print_string (Analysis.Quality.to_string q)
  | "-" ->
      print_string (Obs.Json.to_string (Analysis.Quality.to_json q) ^ "\n")
  | path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Obs.Json.to_string (Analysis.Quality.to_json q) ^ "\n"));
      Obs.Log.info "flow-quality report written to %s" path

(* -- Shared pipeline-config flags ------------------------------------------- *)

(* The one flag block for every subcommand that builds a
   [Refill.Config.t] (reconstruct, analyze, serve).  Parsing goes
   through [Config.of_options], so an omitted flag keeps the library
   default and an out-of-range value maps onto the same
   [Invalid_config] exit code in every subcommand. *)
let config_term =
  let chunk_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk-events" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Records per segment fed to the streaming frontier (default \
                %d)."
               Refill.Config.default.chunk_events))
  in
  let watermark =
    Arg.(
      value
      & opt (some int) None
      & info [ "watermark" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Evict a packet once no record of it appeared in the last \
                $(docv) records processed (default %d)."
               Refill.Config.default.watermark))
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the streaming frontier $(docv) ways, routing each \
             packet key by hash: shard 0 runs in the calling domain and \
             each other shard on a worker domain.  Output is \
             byte-identical to --shards 1.  Checkpoints record all shards \
             and resume at any shard count.")
  in
  let late_retention =
    Arg.(
      value
      & opt (some int) None
      & info [ "late-retention" ] ~docv:"N"
          ~doc:
            "Forget an evicted packet key $(docv) records after its \
             eviction, bounding the memory behind late-fragment detection \
             (default: 4x the watermark).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the batch path (default: auto).")
  in
  Term.(
    const (fun chunk_events watermark shards late_retention jobs ->
        fun ~provenance ->
          Refill.Config.of_options ?chunk_events ?watermark ?shards
            ?late_retention:(Option.map Option.some late_retention)
            ?jobs:(Option.map Option.some jobs)
            ~provenance ())
    $ chunk_events $ watermark $ shards $ late_retention $ jobs)

(* -- Shared argument definitions ------------------------------------------- *)

let seed_arg =
  let doc = "Master random seed; every run is deterministic in it." in
  Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"SEED" ~doc)

let days_arg =
  let doc = "Number of compressed days to simulate." in
  Arg.(value & opt int 2 & info [ "days" ] ~docv:"DAYS" ~doc)

let nodes_arg =
  let doc = "Approximate node count (realized as the nearest grid)." in
  Arg.(value & opt int 100 & info [ "nodes" ] ~docv:"N" ~doc)

let loss_arg =
  let doc =
    "Log lossiness: 'none', 'default', or a uniform per-record drop \
     probability like '0.2'."
  in
  Arg.(value & opt string "default" & info [ "log-loss" ] ~docv:"SPEC" ~doc)

let parse_loss spec =
  match spec with
  | "none" -> Ok Logsys.Loss_model.none
  | "default" -> Ok Logsys.Loss_model.default
  | s -> (
      match float_of_string_opt s with
      | Some p when p >= 0. && p <= 1. -> Ok (Logsys.Loss_model.uniform p)
      | Some _ | None ->
          Error (Printf.sprintf "invalid --log-loss %S" s))

let scenario_params ~seed ~days ~nodes =
  {
    Scenario.Citysee.default with
    seed = Int64.of_int seed;
    days;
    n_nodes = nodes;
    (* The default's environmental event counts describe a 30-day month;
       scale them to the requested horizon. *)
    server_outages = max 1 (4 * days / 30);
    snow_days =
      (match Scenario.Citysee.default.snow_days with
      | Some (d0, _) when d0 >= days -> None
      | other -> other);
    sink_fix_day =
      (match Scenario.Citysee.default.sink_fix_day with
      | Some d when d >= days -> None
      | other -> other);
  }

(* -- simulate ----------------------------------------------------------------- *)

let simulate obs seed days nodes loss stream_order output =
  with_observability obs @@ fun () ->
  match parse_loss loss with
  | Error e ->
      Obs.Log.error "%s" e;
      1
  | Ok loss_config ->
      let params = scenario_params ~seed ~days ~nodes in
      Obs.Log.info "simulating %d nodes for %d day(s) (seed %d)..." nodes days
        seed;
      let t = Scenario.Citysee.run params in
      let collected = Scenario.Citysee.collected_lossy t loss_config in
      let truth = Node.Network.truth t.network in
      Logsys.Log_io.save_file output ~sink:t.sink ~truth
        ~time_order:stream_order collected;
      Printf.printf
        "generated %d packets, %d surviving log records -> %s (sink = node \
         %d)\n"
        (Node.Network.packets_generated t.network)
        (Logsys.Collected.total collected)
        output t.sink;
      0

let simulate_cmd =
  let output =
    Arg.(
      value
      & opt string "citysee-logs.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output log dump file.")
  in
  let stream_order =
    Arg.(
      value & flag
      & info [ "stream-order" ]
          ~doc:
            "Dump records in arrival (true-time) order instead of node-major \
             order — the shape `refill reconstruct --stream` wants.")
  in
  let doc = "Simulate a CitySee-like deployment and dump collected logs." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ obs_opts_term $ seed_arg $ days_arg $ nodes_arg
      $ loss_arg $ stream_order $ output)

(* -- The batch pipeline ---------------------------------------------------- *)

let print_packet_summary (s : Refill.Reconstruct.summary) =
  Printf.printf
    "reconstructed %d packets: %d logged events, %d inferred lost events, %d \
     unusable records\n"
    s.packets s.logged_events s.inferred_events s.skipped_events

let print_global_flow_stats (gs : Refill.Global_flow.stats) =
  Printf.printf
    "global flow: %d events merged (%d logged, %d inferred), %d node-log \
     constraints relaxed\n"
    gs.events gs.logged gs.inferred gs.relaxed

(* Open a dump for reading, with the CLI's error surface. *)
let open_mseg input =
  match Logsys.Log_io.Mseg.open_file input with
  | r -> Ok r
  | exception Unix.Unix_error (e, _, _) ->
      Error (Refill.Error.Io { path = input; message = Unix.error_message e })
  | exception Sys_error message ->
      Error (Refill.Error.Io { path = input; message })
  | exception Failure message ->
      Error (Refill.Error.Malformed { source = input; message })

(* How every subcommand reads a whole dump: every record into one arena,
   the packet index over it, the sink, and with [~truth] the ground-truth
   fates. *)
let load_dump ?(truth = false) input =
  Result.bind (open_mseg input) (fun reader ->
      Refill.Error.guard ~source:input (fun () ->
          let arena = Logsys.Arena.create () in
          ignore
            (Logsys.Log_io.Mseg.next_into reader arena ~max_records:max_int
              : int);
          ( Logsys.Arena.Packets.build arena
              ~n_nodes:(Logsys.Log_io.Mseg.n_nodes reader),
            Logsys.Log_io.Mseg.sink reader,
            if truth then Logsys.Log_io.Mseg.truth reader else None )))

(* The batch run behind `analyze` and `reconstruct`: every packet's flow
   over [packets], in key order, goes to [on_flow], the summary line and
   the quality scorecard, and with --global-flow into the network-wide
   merge over the same index.  Quality accumulates as flows are emitted,
   so only --global-flow retains them. *)
let run_batch (config : Refill.Config.t) ~global_flow ~quality
    ?(on_flow = ignore) ~sink packets =
  let summary = ref Refill.Reconstruct.empty_summary in
  let flows_rev = ref [] in
  let qacc = Option.map (fun _ -> Analysis.Quality.create ()) quality in
  Refill.Reconstruct.run_arena ~config packets ~sink ~emit:(fun f ->
      summary := Refill.Reconstruct.summary_add !summary f;
      Option.iter (fun acc -> Analysis.Quality.add acc f) qacc;
      on_flow f;
      if global_flow then flows_rev := f :: !flows_rev);
  (match (quality, qacc) with
  | Some dest, Some acc -> write_quality dest (Analysis.Quality.finish acc)
  | _ -> ());
  print_packet_summary !summary;
  if global_flow then
    print_global_flow_stats
      (Refill.Global_flow.merge_from
         (Refill.Global_flow.Arena_index packets)
         ~flows:(Array.of_list (List.rev !flows_rev))
         ~emit:ignore)

(* -- analyze ------------------------------------------------------------------ *)

let print_breakdown verdicts ~sink ~total_label =
  let counts = Hashtbl.create 8 in
  let at_sink = Hashtbl.create 8 in
  let lost = ref 0 in
  List.iter
    (fun ((_, v) : (int * int) * Refill.Classify.verdict) ->
      if not (Logsys.Cause.equal v.cause Logsys.Cause.Delivered) then begin
        incr lost;
        Hashtbl.replace counts v.cause
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.cause));
        if v.loss_node = Some sink then
          Hashtbl.replace at_sink v.cause
            (1 + Option.value ~default:0 (Hashtbl.find_opt at_sink v.cause))
      end)
    verdicts;
  Printf.printf "%s: %d lost of %d analyzed\n" total_label !lost
    (List.length verdicts);
  List.iter
    (fun cause ->
      match Hashtbl.find_opt counts cause with
      | None | Some 0 -> ()
      | Some c ->
          let s = Option.value ~default:0 (Hashtbl.find_opt at_sink cause) in
          Printf.printf "  %-14s %5d (%5.1f%%)%s\n" (Logsys.Cause.name cause)
            c
            (100. *. float_of_int c /. float_of_int (max 1 !lost))
            (if s > 0 then Printf.sprintf "  [%d at sink]" s else ""))
    (Logsys.Cause.loss_causes @ [ Logsys.Cause.Unknown ])

let analyze (obs, provenance, input) mk_config global_flow =
  with_observability obs ~outputs:[ ("--provenance", provenance) ]
  @@ fun () ->
  match mk_config ~provenance:(provenance <> None) with
  | Error e -> err_exit e
  | Ok config -> (
      match load_dump ~truth:true input with
      | Error e -> err_exit e
      | Ok (packets, sink, truth) ->
      Obs.Log.debug "loaded %d surviving records from %s"
        (Logsys.Arena.length (Logsys.Arena.Packets.arena packets))
        input;
      let verdicts_rev = ref [] in
      run_batch config ~global_flow ~quality:provenance
        ~on_flow:(fun (f : Refill.Flow.t) ->
          verdicts_rev :=
            ((f.origin, f.seq), Refill.Classify.classify f) :: !verdicts_rev)
        ~sink packets;
      let verdicts = List.rev !verdicts_rev in
      print_breakdown verdicts ~sink ~total_label:"verdicts";
      (match truth with
      | None ->
          print_string
            "note: no server database available; Delivered verdicts cannot \
             be split into delivered vs server-outage.\n"
      | Some truth ->
          (* The server's database (which packets actually arrived) is part
             of the operators' toolbox; reconcile as §V.C does. *)
          let delivered_db =
            Logsys.Truth.fold truth ~init:[] ~f:(fun acc key fate ->
                if Logsys.Cause.equal fate.cause Logsys.Cause.Delivered then
                  (key, fate.resolved_at) :: acc
                else acc)
          in
          let refined =
            Analysis.Pipeline.refine_with_server ~delivered_db verdicts
          in
          print_newline ();
          print_breakdown refined ~sink
            ~total_label:"verdicts (reconciled with server DB)";
          let accuracy v =
            100.
            *. Analysis.Metrics.accuracy
                 (Analysis.Metrics.confusion ~truth
                    ~verdicts:
                      (List.map
                         (fun (k, (x : Refill.Classify.verdict)) ->
                           (k, x.cause))
                         v))
          in
          Printf.printf
            "cause accuracy vs ground truth: %.1f%% from WSN logs alone, \
             %.1f%% reconciled with the server DB\n"
            (accuracy verdicts) (accuracy refined));
      0)

let analyze_cmd =
  let global_flow =
    Arg.(
      value & flag
      & info [ "global-flow" ]
          ~doc:
            "Also merge the per-packet flows into the network-wide event \
             flow (§II Eq. 1) and report its merge statistics.")
  in
  let doc = "Reconstruct event flows from a log dump and classify losses." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const analyze $ obs_provenance_logfile $ config_term $ global_flow)

(* -- reconstruct -------------------------------------------------------------- *)

let print_stream_summary (s : Refill.Stream.summary) =
  Printf.printf
    "streamed %d records in %d segment(s): %d flows (%d complete, %d \
     incomplete), %d mid-stream evictions, %d late fragments, %d forgotten \
     keys, peak frontier %d events\n"
    s.events s.segments s.flows s.complete s.incomplete s.evictions
    s.late_fragments s.forgotten_keys s.peak_frontier_events

let reconstruct_batch config ~global_flow ~quality input =
  match load_dump input with
  | Error e -> err_exit e
  | Ok (packets, sink, _) ->
      run_batch config ~global_flow ~quality ~sink packets;
      0

let reconstruct_stream (config : Refill.Config.t) ~global_flow ~quality
    ~checkpoint ~finish ~emit_file ~source reader =
  let sink = Logsys.Log_io.Mseg.sink reader in
  let inc =
    if global_flow then
      Some
        (Refill.Global_flow.Incremental.create
           ~n_nodes:(Logsys.Log_io.Mseg.n_nodes reader)
           ())
    else None
  in
  let summary = ref Refill.Reconstruct.empty_summary in
  let qacc = Option.map (fun _ -> Analysis.Quality.create ()) quality in
  (* The same outcome-line sink `refill serve` writes, so a server run
     over the same record sequence can be byte-diffed against this one. *)
  let esink =
    match emit_file with
    | None -> Refill_serve.Emit.null
    | Some path -> Refill_serve.Emit.to_file path
  in
  let emit (e : Refill.Stream.emitted) =
    summary := Refill.Reconstruct.summary_add !summary e.flow;
    Option.iter (fun acc -> Analysis.Quality.add acc e.flow) qacc;
    Refill_serve.Emit.emit_to esink e;
    Option.iter
      (fun g -> Refill.Global_flow.Incremental.add_flow g e.flow)
      inc
  in
  let stream_r =
    match checkpoint with
    | Some path when Sys.file_exists path -> (
        match Refill.Stream.resume_file ~config path ~sink ~emit with
        | Error e -> Error e
        | Ok t ->
            let want = Refill.Stream.processed t in
            let skipped = Logsys.Log_io.Mseg.skip reader want in
            if skipped < want then
              Error
                (Refill.Error.Bad_checkpoint
                   {
                     source = path;
                     message =
                       Printf.sprintf
                         "checkpoint is ahead of the input (%d records \
                          processed, input has %d)"
                         want skipped;
                   })
            else begin
              Obs.Log.info "resumed from %s at record %d" path want;
              Ok t
            end)
    | _ -> Ok (Refill.Stream.create ~config ~sink ~emit ())
  in
  (* One arena reused per chunk: clear keeps the column storage, so a
     steady-state chunk allocates nothing on the ingest side. *)
  let arena = Logsys.Arena.create ~capacity:config.chunk_events () in
  let rec feed_all t =
    Logsys.Arena.clear arena;
    if
      Logsys.Log_io.Mseg.next_into reader arena
        ~max_records:config.chunk_events
      > 0
    then begin
      let s = Logsys.Arena.slice_all arena in
      Option.iter (fun g -> Refill.Global_flow.Incremental.add_arena g s) inc;
      Refill.Stream.feed_arena t s;
      feed_all t
    end
  in
  let code =
    match stream_r with
    | Error e -> err_exit e
    | Ok t -> (
        match Refill.Error.guard ~source (fun () -> feed_all t) with
        | Error e -> err_exit e
        | Ok () -> (
            (* Checkpoint the live (pre-flush) state so a later run can
               resume exactly here; --finish then decides whether to flush
               the frontier now. *)
            match
              match checkpoint with
              | Some path -> Refill.Stream.checkpoint_file t path
              | None -> Ok ()
            with
            | Error e -> err_exit e
            | Ok () ->
                (match checkpoint with
                | Some path -> Obs.Log.info "checkpoint written to %s" path
                | None -> ());
                let flush_now = finish || checkpoint = None in
                if flush_now then begin
                  let s = Refill.Stream.finish t in
                  print_packet_summary !summary;
                  print_stream_summary s;
                  (match (quality, qacc) with
                  | Some dest, Some acc ->
                      write_quality dest (Analysis.Quality.finish acc)
                  | _ -> ());
                  Option.iter
                    (fun g ->
                      print_global_flow_stats
                        (Refill.Global_flow.Incremental.finish g
                           ~emit:ignore))
                    inc
                end
                else begin
                  let s = Refill.Stream.summary t in
                  print_stream_summary s;
                  Obs.Log.info
                    "frontier left open (%d buffered events); rerun with \
                     --finish to flush"
                    s.frontier_events
                end;
                0))
  in
  esink.Refill_serve.Emit.close ();
  (match emit_file with
  | Some path when code = 0 -> Obs.Log.info "flow outcomes written to %s" path
  | _ -> ());
  code

let reconstruct (obs, quality, input) mk_config stream checkpoint finish
    emit_file global_flow =
  with_observability obs ~outputs:[ ("--provenance", quality) ]
  @@ fun () ->
  match mk_config ~provenance:(quality <> None) with
  | Error e -> err_exit e
  | Ok (config : Refill.Config.t) ->
      if (not stream) && (checkpoint <> None || finish) then
        err_exit
          (Refill.Error.Invalid_config
             "--checkpoint and --finish require --stream")
      else if (not stream) && config.shards > 1 then
        err_exit
          (Refill.Error.Invalid_config "--shards requires --stream")
      else if (not stream) && emit_file <> None then
        err_exit
          (Refill.Error.Invalid_config "--emit-file requires --stream")
      else if global_flow && checkpoint <> None then
        err_exit
          (Refill.Error.Invalid_config
             "--global-flow cannot be combined with --checkpoint: the \
              incremental merge needs the records from before the resume \
              point")
      else if stream then
        match open_mseg input with
        | Error e -> err_exit e
        | Ok reader ->
            reconstruct_stream config ~global_flow ~quality ~checkpoint
              ~finish ~emit_file ~source:input reader
      else reconstruct_batch config ~global_flow ~quality input

let reconstruct_cmd =
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Consume the dump incrementally with bounded memory, emitting \
             each packet's flow when it goes quiet, instead of loading the \
             whole file.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Resume from $(docv) if it exists, and write the live frontier \
             back to it at end of input.  Implies leaving the frontier open \
             unless --finish is also given.")
  in
  let finish =
    Arg.(
      value & flag
      & info [ "finish" ]
          ~doc:
            "With --checkpoint: flush every still-open packet at end of \
             input instead of leaving the frontier for a later resume.")
  in
  let emit_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-file" ] ~docv:"FILE"
          ~doc:
            "With --stream: write each emitted flow outcome as one text \
             line to $(docv) — the same format `refill serve` emits, so \
             the two can be byte-diffed.")
  in
  let global_flow =
    Arg.(
      value & flag
      & info [ "global-flow" ]
          ~doc:
            "Also merge the per-packet flows into the network-wide event \
             flow (§II Eq. 1) and report its merge statistics.")
  in
  let doc =
    "Reconstruct per-packet event flows from a log dump, batch or streaming."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Without $(b,--stream) this loads the whole dump and runs the batch \
         pipeline.  With $(b,--stream) the dump is consumed segment by \
         segment: only the frontier (packets whose records are still \
         arriving) is held in memory, each packet's flow is emitted when no \
         record of it has been seen for $(b,--watermark) records, and the \
         run can checkpoint its state and resume later.";
      `P
        "Streaming wants arrival-ordered input (`refill simulate \
         --stream-order`); node-major dumps work but keep nearly every \
         packet open until end of input.";
    ]
  in
  Cmd.v
    (Cmd.info "reconstruct" ~doc ~man)
    Term.(
      const reconstruct $ obs_provenance_logfile $ config_term $ stream
      $ checkpoint $ finish $ emit_file $ global_flow)

(* -- trace -------------------------------------------------------------------- *)

let trace (obs, input) origin seq =
  with_observability obs @@ fun () ->
  match load_dump ~truth:true input with
  | Error e -> err_exit e
  | Ok (packets, sink, truth) ->
      let flow = Refill.Reconstruct.packet packets ~origin ~seq ~sink in
      if Refill.Flow.length flow = 0 then begin
        Printf.printf "no surviving records for packet (%d, %d)\n" origin seq;
        1
      end
      else begin
        Printf.printf "packet (origin %d, seq %d)\n" origin seq;
        Printf.printf "flow : %s\n" (Refill.Flow.to_string flow);
        print_newline ();
        print_string (Refill.Flow.to_sequence_diagram flow);
        print_newline ();
        Printf.printf "path : %s\n"
          (String.concat " -> "
             (List.map string_of_int (Refill.Flow.nodes_visited flow)));
        let v = Refill.Classify.classify flow in
        Printf.printf "cause: %s%s%s\n"
          (Logsys.Cause.name v.cause)
          (match v.loss_node with
          | Some n -> Printf.sprintf " at node %d" n
          | None -> "")
          (match v.next_hop with
          | Some n -> Printf.sprintf " (toward node %d)" n
          | None -> "");
        (match truth with
        | Some truth -> (
            match Logsys.Truth.find truth ~origin ~seq with
            | Some fate ->
                Printf.printf "truth: %s%s, path %s\n"
                  (Logsys.Cause.name fate.cause)
                  (match fate.loss_node with
                  | Some n -> Printf.sprintf " at node %d" n
                  | None -> "")
                  (String.concat " -> " (List.map string_of_int fate.path))
            | None -> ())
        | None -> ());
        0
      end

let trace_cmd =
  let origin =
    Arg.(
      required
      & opt (some int) None
      & info [ "origin" ] ~docv:"NODE" ~doc:"Origin node of the packet.")
  in
  let seq =
    Arg.(
      required
      & opt (some int) None
      & info [ "seq" ] ~docv:"SEQ" ~doc:"Per-origin sequence number.")
  in
  let doc = "Print one packet's reconstructed event flow." in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const trace $ obs_logfile $ origin $ seq)

(* -- explain ------------------------------------------------------------------- *)

(* Evidence index [idx] of a packet's rows, as the record it cites, if
   any: the one place explain builds a record. *)
let evidence_record packets rows idx =
  if idx >= 0 && idx < Array.length rows then
    Some (Logsys.Arena.get (Logsys.Arena.Packets.arena packets) rows.(idx))
  else None

let explain_json ~origin ~seq ~record (flow : Refill.Flow.t) =
  let module J = Obs.Json in
  let num i = J.Num (float_of_int i) in
  let evidence_json (pv : Refill.Provenance.t) =
    J.Arr
      (Array.to_list (Refill.Provenance.evidence pv)
      |> List.map (fun idx ->
             J.Obj
               [
                 ("index", num idx);
                 ( "record",
                   match record idx with
                   | Some r -> J.Str (Logsys.Record.to_string r)
                   | None -> J.Null );
               ]))
  in
  let event_json k =
    let pv = flow.prov.(k) in
    J.Obj
      [
        ("index", num k);
        ("node", num (Refill.Flow.node flow k));
        ("label", J.Str (Refill.Protocol.label_name (Refill.Flow.label flow k)));
        ("inferred", J.Bool (Refill.Flow.inferred flow k));
        ( "entered",
          J.Str (Refill.Protocol.state_name (Refill.Flow.entered flow k)) );
        ( "provenance",
          J.Obj
            [
              ( "mechanism",
                J.Str
                  (Refill.Provenance.mechanism_name
                     (Refill.Provenance.mechanism pv)) );
              ( "src",
                J.Str (Refill.Protocol.state_name (Refill.Provenance.src pv))
              );
              ( "dst",
                J.Str (Refill.Protocol.state_name (Refill.Provenance.dst pv))
              );
              ( "confidence",
                J.Str
                  (Refill.Provenance.confidence_name
                     (Refill.Provenance.confidence pv)) );
              ("evidence", evidence_json pv);
            ] );
      ]
  in
  let v = Refill.Classify.classify flow in
  J.Obj
    [
      ("schema", J.Str "refill-explain-v1");
      ("origin", num origin);
      ("seq", num seq);
      ("cause", J.Str (Logsys.Cause.name v.cause));
      ("events", J.Arr (List.init (Refill.Flow.length flow) event_json));
    ]

let explain_text ~origin ~seq ~record (flow : Refill.Flow.t) =
  Printf.printf "packet (origin %d, seq %d): %d events, %d inferred\n" origin
    seq (Refill.Flow.length flow) flow.stats.emitted_inferred;
  for k = 0 to Refill.Flow.length flow - 1 do
    let pv = flow.prov.(k) in
    Printf.printf "  #%-3d %-18s %s\n" k
      (Refill.Flow.item_to_string flow k)
      (Refill.Provenance.to_string ~state_name:Refill.Protocol.state_name pv);
    Array.iter
      (fun idx ->
        match record idx with
        | Some r ->
            Printf.printf "         evidence[%d] = %s\n" idx
              (Logsys.Record.to_string r)
        | None -> ())
      (Refill.Provenance.evidence pv)
  done;
  let v = Refill.Classify.classify flow in
  Printf.printf "cause: %s%s\n"
    (Logsys.Cause.name v.cause)
    (match v.loss_node with
    | Some n -> Printf.sprintf " at node %d" n
    | None -> "")

let explain (obs, input) json origin seq =
  with_observability obs @@ fun () ->
  match load_dump input with
  | Error e -> err_exit e
  | Ok (packets, sink, _) -> (
      let key =
        match (origin, seq) with
        | Some o, Some s -> Ok (o, s)
        | None, None -> (
            (* Default to the dump's first packet: a worked example needs no
               argument spelunking. *)
            match Logsys.Arena.Packets.keys packets with
            | [] -> Error "no packets in the dump"
            | k :: _ -> Ok k)
        | _ -> Error "give both --origin and --seq, or neither"
      in
      match key with
      | Error msg ->
          Obs.Log.error "%s" msg;
          1
      | Ok (origin, seq) ->
          let record =
            evidence_record packets
              (Logsys.Arena.Packets.packet_rows packets ~origin ~seq)
          in
          let flow =
            Refill.Reconstruct.packet ~provenance:true packets ~origin ~seq
              ~sink
          in
          if Refill.Flow.length flow = 0 then begin
            Obs.Log.error "no surviving records for packet (%d, %d)" origin
              seq;
            1
          end
          else begin
            if json then
              print_string
                (Obs.Json.to_string (explain_json ~origin ~seq ~record flow)
                ^ "\n")
            else explain_text ~origin ~seq ~record flow;
            0
          end)

let explain_cmd =
  let origin =
    Arg.(
      value
      & opt (some int) None
      & info [ "origin" ] ~docv:"NODE" ~doc:"Origin node of the packet.")
  in
  let seq =
    Arg.(
      value
      & opt (some int) None
      & info [ "seq" ] ~docv:"SEQ" ~doc:"Per-origin sequence number.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the provenance chain as a refill-explain-v1 JSON document.")
  in
  let doc =
    "Explain why REFILL believes each event of a packet's flow happened."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reconstructs one packet with provenance enabled and prints, for \
         every event, the mechanism that produced it (logged, \
         intra-inference, inter-inference), the FSM transition taken, its \
         confidence class, and the input records it was derived from.  \
         Without $(b,--origin)/$(b,--seq) the dump's first packet is \
         explained.";
    ]
  in
  Cmd.v (Cmd.info "explain" ~doc ~man)
    Term.(const explain $ obs_logfile $ json $ origin $ seq)

(* -- figures ------------------------------------------------------------------- *)

let figures obs seed days nodes csv_dir which =
  with_observability obs @@ fun () ->
  let params = scenario_params ~seed ~days ~nodes in
  Obs.Log.info "simulating %d nodes for %d day(s) (seed %d)..." nodes days
    seed;
  let t = Scenario.Citysee.run params in
  let p = Analysis.Pipeline.make t in
  (match csv_dir with
  | Some dir ->
      let written = Analysis.Export.write_all p ~dir in
      List.iter (fun path -> Obs.Log.info "wrote %s" path) written
  | None -> ());
  let render = function
    | "table2" -> print_string (Analysis.Figures.table2 ())
    | "fig4" -> print_string (Analysis.Figures.fig4 p)
    | "fig5" -> print_string (Analysis.Figures.fig5 p)
    | "fig6" -> print_string (Analysis.Figures.fig6 p)
    | "fig8" -> print_string (Analysis.Figures.fig8 p)
    | "fig9" -> print_string (Analysis.Figures.fig9 p)
    | other -> Obs.Log.error "unknown figure %S" other
  in
  (match which with
  | [] -> List.iter render [ "table2"; "fig4"; "fig5"; "fig6"; "fig8"; "fig9" ]
  | l -> List.iter render l);
  0

let figures_cmd =
  let which =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FIGURE"
          ~doc:"Figures to render (table2, fig4, fig5, fig6, fig8, fig9).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write each figure's underlying data as CSV into $(docv).")
  in
  let doc = "Regenerate the paper's figures from a fresh simulation." in
  Cmd.v
    (Cmd.info "figures" ~doc)
    Term.(
      const figures $ obs_opts_term $ seed_arg $ days_arg $ nodes_arg
      $ csv_dir $ which)

(* -- report -------------------------------------------------------------------- *)

let report obs seed days nodes =
  with_observability obs @@ fun () ->
  let params = scenario_params ~seed ~days ~nodes in
  Obs.Log.info "simulating %d nodes for %d day(s) (seed %d)..." nodes days
    seed;
  let t = Scenario.Citysee.run params in
  let pipeline = Analysis.Pipeline.make t in
  print_string (Analysis.Report.to_string (Analysis.Report.build pipeline));
  0

let report_cmd =
  let doc =
    "Simulate a deployment and print the full REFILL diagnosis report."
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const report $ obs_opts_term $ seed_arg $ days_arg $ nodes_arg)

(* -- check --------------------------------------------------------------------- *)

let check obs json strict dot_dir models =
  with_observability obs @@ fun () ->
  let known = Refill_check.Builtin.names in
  let models =
    match models with [] -> Refill_check.Builtin.default_names | l -> l
  in
  let unknown = List.filter (fun m -> not (List.mem m known)) models in
  if unknown <> [] then begin
    Obs.Log.error "unknown model(s): %s (known: %s)"
      (String.concat ", " unknown)
      (String.concat ", " known);
    2
  end
  else begin
    let results =
      List.map
        (fun m ->
          (m, Option.get (Refill_check.Builtin.run_model m)))
        models
    in
    (match dot_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun m ->
            List.iter
              (fun (fname, src) ->
                let path = Filename.concat dir fname in
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () -> output_string oc src);
                Obs.Log.info "wrote %s" path)
              (Refill_check.Builtin.dots m))
          models);
    if json then
      print_string
        (Obs.Json.to_string (Refill_check.Check.to_json results) ^ "\n")
    else print_string (Refill_check.Check.to_text results);
    let all = List.concat_map snd results in
    let failing =
      Refill_check.Check.error_count all
      + if strict then Refill_check.Diagnostic.count Warning all else 0
    in
    if failing > 0 then 1 else 0
  end

let check_cmd =
  let models =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"MODEL"
          ~doc:
            "Protocol models to analyze (ctp, dissem); all of them when \
             omitted.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as a JSON document (for CI).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Promote warnings to errors: exit 1 when any warning-severity \
             diagnostic is found, not only errors.")
  in
  let dot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"DIR"
          ~doc:
            "Also write each role FSM as Graphviz into $(docv), with the \
             derived intra transitions dashed, plus the product automaton \
             of every role that has confusable state pairs.")
  in
  let doc =
    "Statically analyze the protocol models (FSM well-formedness, intra \
     audit, prerequisite graph, classification totality, loss radius, \
     product-automaton ambiguity)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs all six pass families over the named models and prints the \
         diagnostics sorted by code, then location.";
      `S Manpage.s_exit_status;
      `P
        "The exit-code contract is: 0 — no error-severity diagnostic (the \
         models uphold every invariant the inference pipeline relies on); \
         1 — at least one error-severity diagnostic, or, with $(b,--strict), \
         at least one warning; 2 — unknown model name (nothing was \
         analyzed).  Without $(b,--strict), warnings and infos never \
         affect the exit code.";
    ]
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(const check $ obs_opts_term $ json $ strict $ dot_dir $ models)

(* -- serve / feed -------------------------------------------------------------- *)

let tcp_error port message =
  Refill.Error.Io { path = Printf.sprintf "tcp://127.0.0.1:%d" port; message }

(* The --emit-file sink opens first, so a busy --emit-socket port is an
   [Io] error that closes it again, like a busy --port. *)
let emit_sink ~emit_file ~emit_socket =
  let file = Option.map Refill_serve.Emit.to_file emit_file in
  match emit_socket with
  | None -> Ok (Option.value file ~default:Refill_serve.Emit.null)
  | Some port -> (
      match Refill_serve.Emit.publish ~port with
      | exception Unix.Unix_error (e, _, _) ->
          Option.iter (fun (f : Refill_serve.Emit.sink) -> f.close ()) file;
          Error (tcp_error port (Unix.error_message e))
      | socket ->
          Ok
            (match file with
            | None -> socket
            | Some f -> Refill_serve.Emit.tee f socket))

let serve obs mk_config port http_port checkpoint checkpoint_interval
    emit_file emit_socket read_timeout max_frame sink =
  with_observability obs @@ fun () ->
  match mk_config ~provenance:false with
  | Error e -> err_exit e
  | Ok stream_cfg -> (
      match emit_sink ~emit_file ~emit_socket with
      | Error e -> err_exit e
      | Ok emit -> (
          let cfg =
            {
              Refill_serve.Server.default_config with
              port;
              http_port;
              checkpoint;
              checkpoint_interval;
              read_timeout;
              max_frame;
              stream = stream_cfg;
              sink;
              emit;
            }
          in
          match Refill_serve.Server.start cfg with
          | Error e ->
              emit.close ();
              err_exit e
          | Ok srv ->
              (* The handlers only flip an atomic; the server's loop does
                 the teardown, `wait` returns normally, and the exit goes
                 through with_metrics_flush like any other. *)
              let on_signal _ = Refill_serve.Server.request_stop srv in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
              Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
              (match Refill_serve.Server.http_port srv with
              | Some p ->
                  Obs.Log.info "serve: /metrics on http://127.0.0.1:%d" p
              | None -> ());
              let s = Refill_serve.Server.wait srv in
              print_stream_summary s;
              0))

let serve_cmd =
  let port =
    Arg.(
      value & opt int 7733
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let http_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:"Also serve a Prometheus /metrics endpoint on $(docv).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Resume from $(docv) if it exists; write the live frontier \
             back to it periodically and at shutdown (leaving the frontier \
             open for the next resume).  Without this flag, shutdown \
             flushes every open packet instead.")
  in
  let checkpoint_interval =
    Arg.(
      value & opt float 30.0
      & info [ "checkpoint-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between periodic checkpoints (with --checkpoint).")
  in
  let emit_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-file" ] ~docv:"FILE"
          ~doc:
            "Write each emitted flow outcome as one text line to $(docv) — \
             the same format `reconstruct --stream --emit-file` writes.")
  in
  let emit_socket =
    Arg.(
      value
      & opt (some int) None
      & info [ "emit-socket" ] ~docv:"PORT"
          ~doc:
            "Publish emitted flow outcomes to TCP subscribers on loopback \
             $(docv) (best-effort tap: slow subscribers are dropped).")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Kill a connection that sends nothing for $(docv) seconds (0 \
             disables).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Refill_serve.Wire.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Maximum accepted frame payload (negotiated to clients).")
  in
  let sink =
    Arg.(
      value & opt int 0
      & info [ "sink" ] ~docv:"NODE"
          ~doc:
            "The topology's backbone sink node (what a dump header calls \
             sink; `refill simulate` prints it).")
  in
  let doc = "Run a live ingestion server feeding the streaming pipeline." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens for refill-wire connections (see `refill feed`) and feeds \
         every accepted record batch, one at a time in arrival order, to \
         the same streaming reconstruction `reconstruct --stream` runs \
         offline — sharded across domains with --shards.  A batch is \
         acked once it has been fed; a connection's next batch is read \
         only then, so a busy stream backpressures the senders over TCP.  \
         Flow outcomes can be written to a file (--emit-file) and/or \
         streamed to subscribers (--emit-socket).";
      `P
        "SIGTERM and SIGINT stop the server gracefully: connections are \
         closed (every acked batch is already in the stream), a final \
         checkpoint is written (with --checkpoint), and the process exits \
         0.  A later `refill serve --checkpoint` resumes byte-identically.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve $ obs_opts_term $ config_term $ port $ http_port
      $ checkpoint $ checkpoint_interval $ emit_file $ emit_socket
      $ read_timeout $ max_frame $ sink)

let feed (obs, input) port chunk pipelined =
  with_observability obs @@ fun () ->
  (* Retry briefly so `serve ... & feed ...` scripts need no sleep. *)
  let rec connect tries =
    match Refill_serve.Client.connect ~port () with
    | c -> c
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        Unix.sleepf 0.1;
        connect (tries - 1)
  in
  let run reader =
    (* A server gone mid-feed must surface as EPIPE, not kill the feeder. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let client = connect 50 in
    Refill_serve.Client.feed_file ~chunk ~lockstep:(not pipelined) client
      reader;
    let ack = Refill_serve.Client.finish client in
    (ack, Refill_serve.Client.stats client)
  in
  if chunk <= 0 then
    err_exit
      (Refill.Error.Invalid_config
         (Printf.sprintf "--chunk must be positive, got %d" chunk))
  else
    (* The dump opens before the connection, so a bad one is reported
       like any subcommand's.  What the peer does wrong (a refused
       handshake, a record the server's max-frame cannot carry, a reset)
       is an [Io] error on the server's address, like a refused
       connection. *)
    match open_mseg input with
    | Error e -> err_exit e
    | Ok reader -> (
        match run reader with
        | ack, st ->
            Printf.printf
              "fed %d records in %d frames (%d payload bytes); server acked \
               %d/%d; ack rtt p50 %.6fs p99 %.6fs\n"
              st.records st.frames st.bytes ack.frames ack.records st.rtt_p50
              st.rtt_p99;
            0
        | exception Unix.Unix_error (e, _, _) ->
            err_exit (tcp_error port (Unix.error_message e))
        | exception Refill_serve.Wire.Protocol_error m ->
            err_exit (tcp_error port m)
        | exception Refill_serve.Client.Record_too_large { encoded; max_frame }
          ->
            err_exit
              (tcp_error port
                 (Printf.sprintf
                    "a record encodes to %d bytes, above the server's \
                     max-frame of %d"
                    encoded max_frame))
        | exception Failure message ->
            err_exit (Refill.Error.Malformed { source = input; message }))

let feed_cmd =
  let port =
    Arg.(
      value & opt int 7733
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port to connect to.")
  in
  let chunk =
    Arg.(
      value & opt int 512
      & info [ "chunk" ] ~docv:"N" ~doc:"Records per data frame.")
  in
  let pipelined =
    Arg.(
      value & flag
      & info [ "pipelined" ]
          ~doc:
            "Send frames back to back and collect acks at the end, instead \
             of one frame per ack round-trip (lockstep).")
  in
  let doc = "Feed a log dump to a running `refill serve` over TCP." in
  Cmd.v
    (Cmd.info "feed" ~doc)
    Term.(const feed $ obs_logfile $ port $ chunk $ pipelined)

(* -- main ---------------------------------------------------------------------- *)

let () =
  let doc =
    "REFILL: reconstruct network behavior from individual and lossy logs"
  in
  let info = Cmd.info "refill" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd;
            analyze_cmd;
            reconstruct_cmd;
            serve_cmd;
            feed_cmd;
            trace_cmd;
            explain_cmd;
            figures_cmd;
            report_cmd;
            check_cmd;
          ]))
