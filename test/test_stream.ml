(* Streaming reconstruction: frontier/watermark semantics, equivalence with
   the batch pipeline, chunk-size and shard-count invariance,
   checkpoint/resume, the segmented reader, and the incremental
   global-flow merge. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let lossless = lazy (Scenario.Citysee.collected (Lazy.force scenario))

let sink () = (Lazy.force scenario).sink

let lossy_collected p seed =
  let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
  Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
    (Lazy.force lossless)

(* A flow's observable identity: nan-safe (Flow.to_string prints items;
   stats are plain ints), unlike polymorphic equality on the payload
   records. *)
let flow_sig (f : Refill.Flow.t) =
  (f.origin, f.seq, Refill.Flow.to_string f, f.stats)

let batch_flows collected =
  let acc = ref [] in
  Refill.Reconstruct.run collected ~sink:(sink ()) ~emit:(fun f ->
      acc := f :: !acc);
  List.rev !acc

(* The equivalence properties run with an unbounded late-fragment
   retention (the pre-sharding semantics); bounded retention has its own
   regression tests below. *)
let test_config ?(watermark = max_int / 2) ?(shards = 1) () =
  {
    Refill.Config.default with
    watermark;
    shards;
    late_retention = Some max_int;
  }

(* Stream [collected]'s arrival-order trace in [chunk]-sized segments
   through a [shards]-shard stream.  [chunk] and [shards] are clamped to
   >= 1: qcheck shrinkers can step outside the declared range, and a zero
   chunk would never advance the feed loop. *)
let stream_all ?watermark ?(shards = 1) ~chunk collected =
  let chunk = max 1 chunk in
  let ordered = Logsys.Collected.merged_by_time collected in
  let acc = ref [] in
  let config = test_config ?watermark ~shards:(max 1 shards) () in
  let t =
    Refill.Stream.create ~config ~sink:(sink ()) ~emit:(fun e ->
        acc := e :: !acc)
      ()
  in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    Refill.Stream.feed t (Array.sub ordered !i len);
    i := !i + len
  done;
  let s = Refill.Stream.finish t in
  (List.rev !acc, s)

let emission_sigs es =
  List.map
    (fun (e : Refill.Stream.emitted) -> (flow_sig e.flow, e.outcome))
    es

let sort_by_key l =
  List.stable_sort
    (fun ((o1, s1, _, _), _) ((o2, s2, _, _), _) -> compare (o1, s1) (o2, s2))
    l

(* -- Pinned acceptance: lossless tiny rung ------------------------------- *)

let lossless_stream_equals_batch () =
  let collected = Lazy.force lossless in
  let total = Logsys.Collected.total collected in
  let watermark = max 1 (total / 20) in
  let emitted, s = stream_all ~watermark ~chunk:512 collected in
  Alcotest.(check int) "every record consumed" total s.events;
  Alcotest.(check int) "no late fragments on lossless input" 0
    s.late_fragments;
  Alcotest.(check int) "all flows complete" s.flows s.complete;
  Alcotest.(check bool)
    (Printf.sprintf "peak frontier %d < 10%% of %d records"
       s.peak_frontier_events total)
    true
    (s.peak_frontier_events * 10 < total);
  let batch = List.map flow_sig (batch_flows collected) in
  let streamed =
    List.map fst (sort_by_key (emission_sigs emitted))
  in
  Alcotest.(check int) "one flow per packet" (List.length batch)
    (List.length streamed);
  List.iter2
    (fun (bo, bs, bstr, bstats) (so, ss, sstr, sstats) ->
      Alcotest.(check (pair int int)) "key" (bo, bs) (so, ss);
      Alcotest.(check string) "flow" bstr sstr;
      Alcotest.(check bool) "stats" true (bstats = sstats))
    batch streamed

(* -- Chunk-size invariance ------------------------------------------------ *)

let chunk_invariance =
  QCheck.Test.make ~name:"stream emissions independent of chunk size"
    ~count:15
    QCheck.(int_range 1 777)
    (fun chunk ->
      let collected = Lazy.force lossless in
      let watermark = max 1 (Logsys.Collected.total collected / 10) in
      let reference, _ = stream_all ~watermark ~chunk:256 collected in
      let got, _ = stream_all ~watermark ~chunk collected in
      emission_sigs got = emission_sigs reference)

(* -- Sharded equivalence --------------------------------------------------- *)

(* The sharding pin: at any shard count and chunking, the emitted flow
   sequence is byte-identical to the one-shard stream —
   same flows, same outcomes, same order — and the summary matches up to
   peak_frontier_events (a sum of per-shard peaks, an upper bound) and
   segments (a feed-call count, which differs when the chunking does). *)
let summary_matches (ss : Refill.Stream.summary) (sd : Refill.Stream.summary)
    =
  {
    ss with
    peak_frontier_events = sd.peak_frontier_events;
    segments = sd.segments;
  }
  = sd

let sharded_identical_lossless =
  QCheck.Test.make
    ~name:"sharded stream byte-identical to single-domain (lossless)"
    ~count:6
    QCheck.(pair (int_range 2 5) (int_range 1 777))
    (fun (shards, chunk) ->
      let collected = Lazy.force lossless in
      let watermark = max 1 (Logsys.Collected.total collected / 10) in
      let single, sd = stream_all ~watermark ~chunk:256 collected in
      let sharded, ss = stream_all ~watermark ~shards ~chunk collected in
      emission_sigs sharded = emission_sigs single && summary_matches ss sd)

let sharded_identical_lossy =
  QCheck.Test.make
    ~name:"sharded stream byte-identical to single-domain (lossy)" ~count:6
    QCheck.(triple (int_range 2 5) (int_range 0 1000) (int_range 1 10_000))
    (fun (shards, loss_milli, seed) ->
      let p = float_of_int loss_milli /. 2000. in
      let collected = lossy_collected p seed in
      let single, sd = stream_all ~watermark:150 ~chunk:97 collected in
      let sharded, ss =
        stream_all ~watermark:150 ~shards ~chunk:131 collected
      in
      emission_sigs sharded = emission_sigs single && summary_matches ss sd)

(* -- Lossy inputs --------------------------------------------------------- *)

(* Under loss and an aggressive watermark a packet may be split across
   evictions.  The one-directional guarantee: any key whose streamed flows
   differ from its batch flow has an Incomplete flow among them, and no
   record is dropped on the floor. *)
let lossy_divergence_is_flagged =
  QCheck.Test.make ~name:"lossy streaming divergence is flagged Incomplete"
    ~count:10
    QCheck.(pair (int_range 0 1000) (int_range 1 10_000))
    (fun (loss_milli, seed) ->
      let p = float_of_int loss_milli /. 2000. in
      let collected = lossy_collected p seed in
      let total = Logsys.Collected.total collected in
      let emitted, s = stream_all ~watermark:150 ~chunk:97 collected in
      let consumed =
        List.fold_left
          (fun acc (e : Refill.Stream.emitted) ->
            acc + e.flow.stats.emitted_logged + e.flow.stats.skipped)
          0 emitted
      in
      if consumed <> total then
        QCheck.Test.fail_reportf "record conservation: %d fed, %d consumed"
          total consumed;
      if s.events <> total then QCheck.Test.fail_report "events <> total";
      let by_key = Hashtbl.create 64 in
      List.iter
        (fun (e : Refill.Stream.emitted) ->
          let k = (e.flow.origin, e.flow.seq) in
          Hashtbl.replace by_key k
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
        emitted;
      List.for_all
        (fun (b : Refill.Flow.t) ->
          let streamed =
            List.rev
              (Option.value ~default:[]
                 (Hashtbl.find_opt by_key (b.origin, b.seq)))
          in
          match streamed with
          | [ one ] when flow_sig one.flow = flow_sig b -> true
          | parts ->
              (* Divergence from batch: must carry an Incomplete flag. *)
              List.exists
                (fun (e : Refill.Stream.emitted) ->
                  e.outcome = Refill.Stream.Incomplete)
                parts)
        (batch_flows collected))

(* Every emitted flow, late fragments and end-of-input flushes included,
   carries the cause its classification gives, at one shard and at three
   (where shards 1 and 2 classify on their worker domains). *)
let emitted_cause_is_classified =
  QCheck.Test.make ~name:"emitted cause is the flow's classification"
    ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 1 10_000))
    (fun (loss_milli, seed) ->
      let collected = lossy_collected (float_of_int loss_milli /. 2000.) seed in
      List.for_all
        (fun shards ->
          let emitted, _ =
            stream_all ~watermark:150 ~shards ~chunk:97 collected
          in
          List.for_all
            (fun (e : Refill.Stream.emitted) ->
              e.cause = (Refill.Classify.classify e.flow).cause)
            emitted)
        [ 1; 3 ])

(* -- Checkpoint / resume -------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "refill-stream" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The lossy trace under a 150 watermark, and the lossless one under an
   unbounded watermark: that frontier keeps every record, so its late
   checkpoints outgrow the writer's 64 KiB buffer and go out in pieces. *)
let checkpoint_resume_identical () =
  let largest = ref 0 in
  let resume_identical collected watermark =
    let ordered = Logsys.Collected.merged_by_time collected in
    let n = Array.length ordered in
    let config = test_config ~watermark () in
    let run_split cut =
      with_temp_file @@ fun path ->
      let acc = ref [] in
      let t1 =
        Refill.Stream.create ~config ~sink:(sink ()) ~emit:(fun e ->
            acc := e :: !acc)
          ()
      in
      Refill.Stream.feed t1 (Array.sub ordered 0 cut);
      (match Refill.Stream.checkpoint_file t1 path with
      | Ok () -> largest := max !largest (Unix.stat path).st_size
      | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
      (* The abandoned first stream must not influence the resumed one. *)
      let t2 =
        match
          Refill.Stream.resume_file ~config path ~sink:(sink ())
            ~emit:(fun e -> acc := e :: !acc)
        with
        | Ok t -> t
        | Error e -> Alcotest.failf "resume: %s" (Refill.Error.message e)
      in
      Alcotest.(check int) "resume position" cut (Refill.Stream.processed t2);
      Refill.Stream.feed t2 (Array.sub ordered cut (n - cut));
      let s = Refill.Stream.finish t2 in
      (List.rev !acc, s)
    in
    let direct, sd = stream_all ~watermark ~chunk:max_int collected in
    List.iter
      (fun cut ->
        let resumed, sr = run_split cut in
        Alcotest.(check bool)
          (Printf.sprintf "emissions at cut %d" cut)
          true
          (emission_sigs resumed = emission_sigs direct);
        Alcotest.(check bool)
          (Printf.sprintf "summary at cut %d" cut)
          true
          ({ sr with segments = sd.segments } = sd))
      [ 1; n / 3; n / 2; n - 1 ]
  in
  resume_identical (lossy_collected 0.25 42) 150;
  resume_identical (Lazy.force lossless) (max_int / 2);
  if !largest <= 65536 then
    Alcotest.failf "largest checkpoint %d bytes, within one buffer" !largest

(* Checkpoints cut anywhere — including mid-segment — resume into any
   shard count (N -> N, N -> 1, 1 -> N, N -> M) with byte-identical
   emissions. *)
let sharded_checkpoint_resume_identical () =
  let collected = lossy_collected 0.25 42 in
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let direct, _ = stream_all ~watermark:150 ~chunk:97 collected in
  let feed_chunked t lo hi =
    let i = ref lo in
    while !i < hi do
      let len = min 97 (hi - !i) in
      Refill.Stream.feed t (Array.sub ordered !i len);
      i := !i + len
    done
  in
  let run_split ~cut ~shards_before ~shards_after =
    with_temp_file @@ fun path ->
    let acc = ref [] in
    let emit e = acc := e :: !acc in
    let sink = sink () in
    let t =
      Refill.Stream.create
        ~config:(test_config ~watermark:150 ~shards:shards_before ())
        ~sink ~emit ()
    in
    feed_chunked t 0 cut;
    (match Refill.Stream.checkpoint_file t path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
    (* Only emissions from the resumed stream from here on: the abandoned
       first stream's frontier must not leak. *)
    (match
       Refill.Stream.resume_file
         ~config:(test_config ~watermark:150 ~shards:shards_after ())
         path ~sink ~emit
     with
    | Error e -> Alcotest.failf "resume: %s" (Refill.Error.message e)
    | Ok t ->
        Alcotest.(check int) "resume position" cut (Refill.Stream.processed t);
        feed_chunked t cut n;
        ignore (Refill.Stream.finish t));
    List.rev !acc
  in
  List.iter
    (fun (cut, shards_before, shards_after) ->
      let resumed = run_split ~cut ~shards_before ~shards_after in
      Alcotest.(check bool)
        (Printf.sprintf "emissions at cut %d (%d -> %d shards)" cut
           shards_before shards_after)
        true
        (emission_sigs resumed = emission_sigs direct))
    [
      (* n/2 - 13 and n - 40 land mid-segment for the 97-record chunks *)
      (1, 3, 3);
      (n / 3, 3, 1);
      ((n / 2) - 13, 1, 4);
      ((n / 2) - 13, 4, 2);
      (n - 40, 2, 5);
    ]

(* Regression (config-conflict resume): before the fix, resume took the
   semantic flags from the caller's config, so a checkpoint written with
   different ablation knobs silently reconstructed under new semantics. *)
let resume_config_conflict_rejected () =
  with_temp_file @@ fun path ->
  let config = { (test_config ~watermark:150 ()) with use_inter = false } in
  let collected = lossy_collected 0.25 42 in
  let ordered = Logsys.Collected.merged_by_time collected in
  let t = Refill.Stream.create ~config ~sink:(sink ()) ~emit:ignore () in
  Refill.Stream.feed t (Array.sub ordered 0 500);
  (match Refill.Stream.checkpoint_file t path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
  (* Conflicting explicit config: rejected. *)
  (match
     Refill.Stream.resume_file
       ~config:(test_config ~watermark:150 ())
       path ~sink:(sink ()) ~emit:ignore
   with
  | Error (Refill.Error.Bad_checkpoint _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Refill.Error.message e)
  | Ok _ -> Alcotest.fail "conflicting config accepted");
  (* Matching explicit config, and no config at all: both fine; the
     checkpoint's flags win when none is passed. *)
  (match Refill.Stream.resume_file ~config path ~sink:(sink ()) ~emit:ignore with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "matching config rejected: %s" (Refill.Error.message e));
  (match Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "absent config rejected: %s" (Refill.Error.message e));
  (* The rule holds at any target shard count. *)
  match
    Refill.Stream.resume_file
      ~config:(test_config ~watermark:150 ~shards:3 ())
      path ~sink:(sink ()) ~emit:ignore
  with
  | Error (Refill.Error.Bad_checkpoint _) -> ()
  | Error e -> Alcotest.failf "wrong sharded error: %s" (Refill.Error.message e)
  | Ok _ -> Alcotest.fail "sharded conflicting config accepted"

(* Regression (malformed headers): before the fix, resume accepted
   negative counters and a peak-frontier below the restored frontier,
   building a stream whose drain limit was garbage.  It also accepted a
   buffer holding another packet's record, and a packet buffered twice,
   which was then emitted twice. *)
let resume_rejects_nonsense_headers () =
  let first = (Logsys.Collected.merged_by_time (Lazy.force lossless)).(0) in
  (* A one-record buffer holding [first] under key [(origin, seq)]. *)
  let buffer ?(origin = first.origin) ?(seq = first.pkt_seq) () =
    Printf.sprintf "b %d %d 5 0 1\n%s\n" origin seq
      (Logsys.Log_io.record_to_line_exact first)
  in
  let v2 ?(watermark = 100) ?(complete = 0) ?(incomplete = 0) ?flows
      ?(peak = 0) ?(body = "") ~clock ~processed () =
    let flows = Option.value flows ~default:(complete + incomplete) in
    Printf.sprintf
      "# refill-stream-ckpt v2\n\
       # shards 1\n\
       # use-intra 1\n\
       # use-inter 1\n\
       # provenance 0\n\
       # watermark %d\n\
       # retention 400\n\
       # segments 1\n\
       # clock %d\n\
       # shard 0\n\
       # processed %d\n\
       # flows %d\n\
       # complete %d\n\
       # incomplete %d\n\
       # evictions 0\n\
       # late-fragments 0\n\
       # forgotten 0\n\
       # peak-frontier %d\n\
       %s"
      watermark clock processed flows complete incomplete peak body
  in
  (* Well-formed v1 (the format before per-shard sections): no longer
     readable. *)
  let v1 =
    "# refill-stream-ckpt v1\n\
     # processed 10\n\
     # watermark 100\n\
     # segments 2\n\
     # flows 1\n\
     # complete 1\n\
     # incomplete 0\n\
     # evictions 1\n\
     # late-fragments 0\n\
     # peak-frontier 4\n\
     e 3 7\n"
  in
  let cases =
    [
      ("v1 header", v1);
      ("negative processed", v2 ~clock:10 ~processed:(-5) ());
      ("negative watermark", v2 ~watermark:(-1) ~clock:10 ~processed:10 ());
      ("zero watermark", v2 ~watermark:0 ~clock:10 ~processed:10 ());
      ( "peak below restored frontier",
        v2 ~clock:10 ~processed:10 ~peak:0 ~body:(buffer ()) () );
      ( "record of another packet in a buffer",
        v2 ~clock:10 ~processed:10 ~peak:1
          ~body:(buffer ~origin:(first.origin + 7) ())
          () );
      ( "packet buffered twice",
        v2 ~clock:10 ~processed:10 ~peak:2 ~body:(buffer () ^ buffer ()) () );
      ("negative clock", v2 ~clock:(-3) ~processed:(-3) ());
      ( "flows disagree with outcomes",
        v2 ~clock:10 ~processed:10 ~flows:3 ~complete:1 ~incomplete:1 () );
      ( "evicted trigger out of range",
        v2 ~clock:10 ~processed:10 ~body:"e 3 7 99\n" () );
      ("shard totals disagree with clock", v2 ~clock:10 ~processed:7 ());
    ]
  in
  (* The well-formed baseline the cases perturb must itself load. *)
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        (v2 ~clock:10 ~processed:10 ~peak:1 ~body:(buffer ()) ());
      close_out oc;
      match Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "baseline rejected: %s" (Refill.Error.message e));
  List.iter
    (fun (name, text) ->
      with_temp_file @@ fun path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      match
        Refill.Stream.resume_file path ~sink:(sink ()) ~emit:ignore
      with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error (Refill.Error.Bad_checkpoint _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error: %s" name (Refill.Error.message e))
    cases

(* Regression (bounded evicted table): before the fix, every evicted key
   was remembered for the life of the stream.  Now a key is forgotten once
   the clock passes its eviction trigger by [late_retention] records —
   counted in [forgotten_keys] — after which a straggler is NOT flagged as
   a late fragment.  The forgetting rule is a function of global positions
   only, so every shard count counts identically. *)
let evicted_table_is_bounded () =
  let base = (Logsys.Collected.merged_by_time (Lazy.force lossless)).(0) in
  let rec_ ~origin ~seq =
    { base with Logsys.Record.kind = Gen; node = origin; origin; pkt_seq = seq }
  in
  (* Key (1,1) at position 1; unique filler keys push the clock.  With
     watermark 10 / retention 30: (1,1) evicts at trigger 11; its return
     at position 30 is within 11 + 30 -> a late fragment (re-evicted at
     trigger 40); its return at position 151 is far past 40 + 30 -> the
     key has been forgotten, so this is a fresh packet, not a late
     fragment.  Pre-fix, the table never forgot and late_fragments would
     read 2. *)
  let filler = Array.init 200 (fun i -> rec_ ~origin:2 ~seq:(1000 + i)) in
  let run t =
    let feed = Refill.Stream.feed t in
    feed [| rec_ ~origin:1 ~seq:1 |];
    feed (Array.sub filler 0 28);
    feed [| rec_ ~origin:1 ~seq:1 |];
    feed (Array.sub filler 28 120);
    feed [| rec_ ~origin:1 ~seq:1 |];
    feed (Array.sub filler 148 52);
    Refill.Stream.finish t
  in
  let config =
    { (test_config ~watermark:10 ()) with late_retention = Some 30 }
  in
  let record_emissions acc (e : Refill.Stream.emitted) =
    acc :=
      (e.flow.origin, e.flow.seq, e.outcome = Refill.Stream.Incomplete)
      :: !acc
  in
  let single_acc = ref [] in
  let ss =
    run
      (Refill.Stream.create ~config ~sink:(sink ())
         ~emit:(record_emissions single_acc) ())
  in
  Alcotest.(check int) "single: one late fragment" 1 ss.late_fragments;
  Alcotest.(check bool) "single: forgotten keys counted" true
    (ss.forgotten_keys >= 1);
  let sharded_acc = ref [] in
  let sh =
    run
      (Refill.Stream.create
         ~config:{ config with shards = 3 }
         ~sink:(sink ())
         ~emit:(record_emissions sharded_acc) ())
  in
  (* Forgetting is a function of global positions only: three shards see
     the same late fragments, the same forgotten count, and the same
     emission sequence. *)
  Alcotest.(check int) "sharded: late fragments agree" ss.late_fragments
    sh.late_fragments;
  Alcotest.(check int) "sharded: forgotten counts agree" ss.forgotten_keys
    sh.forgotten_keys;
  Alcotest.(check (list (triple int int bool))) "emission sequences agree"
    (List.rev !single_acc) (List.rev !sharded_acc)

(* Regression (forgetting across shards): a shard whose clock jumps over
   both the eviction of a late fragment and the forgetting of its key's
   earlier eviction used to evict first and then skip the forgetting as
   stale, so two or three shards counted fewer forgotten keys than one
   (on this trace 199 and 198 against 200 at watermark 5).  With short
   watermarks and retention, every summary field but the peak now agrees
   at 1, 2 and 3 shards, as the flows do. *)
let forgetting_counted_alike () =
  let ordered = Logsys.Collected.merged_by_time (lossy_collected 0.25 42) in
  let n = Array.length ordered in
  let run ~watermark ~retention shards =
    let acc = ref [] in
    let t =
      Refill.Stream.create
        ~config:
          {
            (test_config ~watermark ~shards ()) with
            late_retention = Some retention;
          }
        ~sink:(sink ())
        ~emit:(fun e -> acc := e :: !acc)
        ()
    in
    let i = ref 0 in
    while !i < n do
      let len = min 97 (n - !i) in
      Refill.Stream.feed t (Array.sub ordered !i len);
      i := !i + len
    done;
    let s = Refill.Stream.finish t in
    (emission_sigs (List.rev !acc), s)
  in
  List.iter
    (fun (watermark, retention) ->
      let single, s1 = run ~watermark ~retention 1 in
      Alcotest.(check bool) "late fragments and forgotten keys occur" true
        (s1.late_fragments > 0 && s1.forgotten_keys > 0);
      List.iter
        (fun shards ->
          let sharded, s = run ~watermark ~retention shards in
          let what =
            Printf.sprintf "watermark %d, %d shards: " watermark shards
          in
          Alcotest.(check int) (what ^ "forgotten keys") s1.forgotten_keys
            s.forgotten_keys;
          Alcotest.(check bool) (what ^ "summary") true (summary_matches s s1);
          Alcotest.(check bool) (what ^ "flows") true (sharded = single))
        [ 2; 3 ])
    [ (5, 20); (3, 12) ]

(* Checkpoints are replaced by rename: when the new one cannot be written
   (here its temporary path is a directory), the call fails with an I/O
   error and the previous checkpoint stays byte-identical and
   resumable. *)
let failed_checkpoint_keeps_old () =
  with_temp_file @@ fun path ->
  let ordered = Logsys.Collected.merged_by_time (lossy_collected 0.25 42) in
  let config = test_config ~watermark:150 () in
  let t = Refill.Stream.create ~config ~sink:(sink ()) ~emit:ignore () in
  Refill.Stream.feed t (Array.sub ordered 0 500);
  (match Refill.Stream.checkpoint_file t path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" (Refill.Error.message e));
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let before = read () in
  Alcotest.(check bool) "no temporary left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  Refill.Stream.feed t (Array.sub ordered 500 500);
  Sys.mkdir (path ^ ".tmp") 0o755;
  Fun.protect ~finally:(fun () -> Sys.rmdir (path ^ ".tmp")) (fun () ->
      match Refill.Stream.checkpoint_file t path with
      | Error (Refill.Error.Io _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Refill.Error.message e)
      | Ok () -> Alcotest.fail "checkpoint over an unwritable temp succeeded");
  Alcotest.(check string) "old checkpoint untouched" before (read ());
  match Refill.Stream.resume_file ~config path ~sink:(sink ()) ~emit:ignore with
  | Ok t -> Alcotest.(check int) "old position" 500 (Refill.Stream.processed t)
  | Error e ->
      Alcotest.failf "old checkpoint unusable: %s" (Refill.Error.message e)

let resume_rejects_garbage () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  match
    Refill.Stream.resume_file path ~sink:(sink ()) ~emit:(fun _ -> ())
  with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error (Refill.Error.Bad_checkpoint _ as e) ->
      Alcotest.(check int) "exit code" 1 (Refill.Error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Refill.Error.message e)

(* An exception from [emit] poisons the stream at any shard count: once a
   call has raised it, every later call re-raises it — including
   [finish], which must not hang on workers that were already stopped. *)
let failure_poisons_stream () =
  let ordered = Logsys.Collected.merged_by_time (Lazy.force lossless) in
  let fails f = match f () with _ -> false | exception Failure _ -> true in
  List.iter
    (fun shards ->
      let t =
        Refill.Stream.create
          ~config:(test_config ~watermark:50 ~shards ())
          ~sink:(sink ())
          ~emit:(fun _ -> failwith "emit failed")
          ()
      in
      let check what f =
        Alcotest.(check bool)
          (Printf.sprintf "%d shard(s): %s raises" shards what)
          true (fails f)
      in
      check "feed + summary" (fun () ->
          Refill.Stream.feed t ordered;
          Refill.Stream.summary t);
      check "later feed" (fun () -> Refill.Stream.feed t [||]);
      check "finish" (fun () -> Refill.Stream.finish t);
      check "summary after finish" (fun () -> Refill.Stream.summary t))
    [ 1; 3 ]

(* A feed emits every flow it evicts before it returns, at any shard
   count: after each segment, the flows emitted so far are exactly the
   flows the stream has counted. *)
let feed_emits_its_evictions () =
  let ordered = Logsys.Collected.merged_by_time (lossy_collected 0.25 42) in
  let n = Array.length ordered in
  List.iter
    (fun shards ->
      let emitted = ref 0 in
      let t =
        Refill.Stream.create
          ~config:(test_config ~watermark:150 ~shards ())
          ~sink:(sink ())
          ~emit:(fun _ -> incr emitted)
          ()
      in
      let i = ref 0 in
      while !i < n do
        let len = min 97 (n - !i) in
        Refill.Stream.feed t (Array.sub ordered !i len);
        i := !i + len;
        (* Read before [summary], which must not emit anything itself. *)
        let seen = !emitted in
        Alcotest.(check int)
          (Printf.sprintf "%d shard(s): flows emitted after %d records"
             shards !i)
          (Refill.Stream.summary t).flows seen
      done;
      ignore (Refill.Stream.finish t))
    [ 1; 2; 4 ]

(* -- Live scrapes ------------------------------------------------------------ *)

(* One scrape of the default registry: each histogram's cumulative
   buckets never decrease and its [_count] is its [+Inf] bucket, and no
   [_total] series is below its value in [prev], the last scrape. *)
let check_scrape prev text =
  let bucket = ref 0. and inf = ref nan in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let i = String.rindex line ' ' in
        let series = String.sub line 0 i in
        let v =
          float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        in
        let name = List.hd (String.split_on_char '{' series) in
        if String.ends_with ~suffix:"_bucket" name then begin
          if v < !bucket then Alcotest.failf "%s fell below %g" line !bucket;
          bucket := v;
          if String.ends_with ~suffix:{|le="+Inf"}|} series then inf := v
        end
        else begin
          bucket := 0.;
          if String.ends_with ~suffix:"_count" name && v <> !inf then
            Alcotest.failf "%s, but its +Inf bucket is %g" line !inf;
          if String.ends_with ~suffix:"_total" name then begin
            (match Hashtbl.find_opt prev series with
            | Some p when v < p -> Alcotest.failf "%s fell from %g" line p
            | _ -> ());
            Hashtbl.replace prev series v
          end
        end
      end)
    (String.split_on_char '\n' text)

(* A second domain scrapes the registry while 3-shard streams, whose
   workers reconstruct and count on their own domains, take the tiny
   scenario's arrival-order records 64 at a time, 20 times over: every
   scrape must be consistent. *)
let scrapes_are_consistent () =
  let stop = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let prev = Hashtbl.create 64 and scrapes = ref 0 in
        while not (Atomic.get stop) do
          check_scrape prev (Refill_obs.Metrics.dump_prometheus ());
          incr scrapes
        done;
        !scrapes)
  in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      let collected = Lazy.force lossless in
      for _ = 1 to 20 do
        ignore (stream_all ~watermark:50 ~shards:3 ~chunk:64 collected)
      done);
  Alcotest.(check bool) "scraped" true (Domain.join scraper > 0)

(* -- The frontier's row store --------------------------------------------- *)

(* A packet row for [push_row]: tag 0 (gen) ignores its peer. *)
let push_gen a ~node ~origin ~seq i =
  Logsys.Arena.push_row a ~node ~tag:0 ~peer:0 ~origin ~pkt_seq:seq
    ~true_time:(float_of_int i) ~gseq:i

(* Buffered records stay rows of the shard's store: a warm feed whose
   rows all join open packets (one shard, a watermark above every row
   fed, so nothing evicts) allocates under one minor word per row, the
   round's own bookkeeping included. *)
let push_path_allocates_nothing () =
  let keys = 64 and rows = 4096 in
  let slice n =
    let a = Logsys.Arena.create ~capacity:n () in
    for i = 0 to n - 1 do
      let k = i mod keys in
      push_gen a ~node:(k mod 5) ~origin:k ~seq:(k + 1) i
    done;
    Logsys.Arena.slice_all a
  in
  let t =
    Refill.Stream.create ~config:(test_config ()) ~sink:0 ~emit:ignore ()
  in
  let opening = slice keys and warm = slice rows and measured = slice rows in
  Refill.Stream.feed_arena t opening;
  Refill.Stream.feed_arena t warm;
  let before = Gc.minor_words () in
  Refill.Stream.feed_arena t measured;
  let per_row = (Gc.minor_words () -. before) /. float_of_int rows in
  Alcotest.(check int) "nothing evicted" 0 (Refill.Stream.summary t).flows;
  if per_row >= 1. then
    Alcotest.failf "%.2f minor words per joining row" per_row;
  Alcotest.(check int) "one flow per key" keys (Refill.Stream.finish t).flows

(* An eviction gathers its chain's node, tag, peer and position columns
   into per-shard arrays and builds no record: a one-shard stream
   (watermark 200) fed the tiny scenario in 256-row segments allocates at
   most 45 minor words per row (about 18 now).  Builds that copied every
   evicted row into a scratch arena and packed it into fresh arrays
   allocated 98, and 119 when each evicted row became a record. *)
let stream_allocation_per_row () =
  let a = Logsys.Arena.of_records (Logsys.Collected.merged_by_time (Lazy.force lossless)) in
  let n = Logsys.Arena.length a in
  let stream () =
    let t =
      Refill.Stream.create
        ~config:{ Refill.Config.default with watermark = 200; shards = 1 }
        ~sink:(sink ()) ~emit:ignore ()
    in
    let off = ref 0 in
    while !off < n do
      let len = min 256 (n - !off) in
      Refill.Stream.feed_arena t (Logsys.Arena.slice a ~off:!off ~len);
      off := !off + len
    done;
    ignore (Refill.Stream.finish t : Refill.Stream.summary)
  in
  stream ();
  let before = Gc.minor_words () in
  stream ();
  let per_row = (Gc.minor_words () -. before) /. float_of_int n in
  if per_row > 45. then
    Alcotest.failf "%.1f minor words per row (%d rows)" per_row n

(* [feed_arena] ignores rows with a negative node, which a wire segment
   can carry; every shard applies that filter on its own scan of the
   segment.  Mixed in at every few rows (with real packets' keys), they
   change nothing at 1, 2 or 3 shards: the emitted lines are those of a
   run fed without them, and [summary.events] does not count them. *)
let negative_nodes_ignored () =
  let ordered = Logsys.Collected.merged_by_time (lossy_collected 0.25 42) in
  let n = Array.length ordered in
  let run ~shards ~negatives =
    let lines = ref [] and sigs = ref [] in
    let t =
      Refill.Stream.create
        ~config:(test_config ~watermark:150 ~shards ())
        ~sink:(sink ())
        ~emit:(fun e ->
          lines := Refill_serve.Emit.line e :: !lines;
          sigs := e :: !sigs)
        ()
    in
    let a = Logsys.Arena.create () in
    let i = ref 0 in
    while !i < n do
      Logsys.Arena.clear a;
      for k = !i to min n (!i + 97) - 1 do
        let r = ordered.(k) in
        if negatives && k mod 3 = 0 then
          push_gen a ~node:(-1 - (k mod 4)) ~origin:r.origin ~seq:r.pkt_seq k;
        Logsys.Arena.push a r
      done;
      if negatives then push_gen a ~node:(-7) ~origin:1 ~seq:1 n;
      Refill.Stream.feed_arena t (Logsys.Arena.slice_all a);
      i := !i + 97
    done;
    let s = Refill.Stream.finish t in
    (List.rev !lines, emission_sigs (List.rev !sigs), s)
  in
  let clean_lines, clean_sigs, clean = run ~shards:1 ~negatives:false in
  List.iter
    (fun shards ->
      let lines, sigs, s = run ~shards ~negatives:true in
      let what = Printf.sprintf "%d shard(s): " shards in
      Alcotest.(check (list string)) (what ^ "emitted lines") clean_lines lines;
      Alcotest.(check bool) (what ^ "flows") true (sigs = clean_sigs);
      Alcotest.(check int) (what ^ "events exclude ignored rows") n s.events;
      Alcotest.(check int) (what ^ "flows counted") clean.flows s.flows)
    [ 1; 2; 3 ]

let feed_after_finish_raises () =
  let t = Refill.Stream.create ~sink:0 ~emit:(fun _ -> ()) () in
  ignore (Refill.Stream.finish t);
  Alcotest.check_raises "feed after finish"
    (Invalid_argument "Stream.feed: stream already finished") (fun () ->
      Refill.Stream.feed t [||])

(* -- Segmented reader ----------------------------------------------------- *)

(* Ordinary dump lines carry %.6f times, so reloaded records match the
   originals only up to that precision (exact lines are covered
   separately). *)
let record_close (a : Logsys.Record.t) (b : Logsys.Record.t) =
  a.node = b.node
  && Logsys.Record.kind_equal a.kind b.kind
  && a.origin = b.origin && a.pkt_seq = b.pkt_seq && a.gseq = b.gseq
  && ((Float.is_nan a.true_time && Float.is_nan b.true_time)
     || Float.abs (a.true_time -. b.true_time) < 1e-5)

(* Read a dump through [Mseg] in [chunk]-row arena chunks, materialized. *)
let mseg_chunks r ~chunk =
  let a = Logsys.Arena.create () in
  let rec loop acc =
    Logsys.Arena.clear a;
    match Logsys.Log_io.Mseg.next_into r a ~max_records:chunk with
    | 0 -> List.rev acc
    | n ->
        Alcotest.(check bool) "chunk within bound" true (n <= chunk);
        loop (Logsys.Arena.to_records a :: acc)
  in
  loop []

let seg_reader_roundtrip () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  with_temp_file @@ fun path ->
  Logsys.Log_io.save_file path ~sink:(sink ()) ~time_order:true collected;
  let r = Logsys.Log_io.Mseg.open_file path in
  Alcotest.(check int) "n_nodes"
    (Logsys.Collected.n_nodes collected)
    (Logsys.Log_io.Mseg.n_nodes r);
  Alcotest.(check int) "sink" (sink ()) (Logsys.Log_io.Mseg.sink r);
  let got = Array.concat (mseg_chunks r ~chunk:61) in
  Alcotest.(check int) "record count" (Array.length ordered)
    (Array.length got);
  Array.iteri
    (fun i r ->
      if not (record_close ordered.(i) r) then
        Alcotest.failf "record %d differs: %s vs %s" i
          (Logsys.Record.to_string ordered.(i))
          (Logsys.Record.to_string r))
    got

let seg_skip_fast_forwards () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  with_temp_file @@ fun path ->
  Logsys.Log_io.save_file path ~sink:(sink ()) ~time_order:true collected;
  let r = Logsys.Log_io.Mseg.open_file path in
  Alcotest.(check int) "read starts at 0" 0 (Logsys.Log_io.Mseg.read r);
  Alcotest.(check int) "skipped" 100 (Logsys.Log_io.Mseg.skip r 100);
  Alcotest.(check int) "read counts skipped records" 100
    (Logsys.Log_io.Mseg.read r);
  let a = Logsys.Arena.create () in
  Alcotest.(check int) "one record after skip" 1
    (Logsys.Log_io.Mseg.next_into r a ~max_records:1);
  Alcotest.(check bool) "positioned at record 100" true
    (record_close ordered.(100) (Logsys.Arena.get a 0));
  Alcotest.(check int) "read counts returned records" 101
    (Logsys.Log_io.Mseg.read r);
  let n = Array.length ordered in
  Alcotest.(check int) "skip clamps at EOF" (n - 101)
    (Logsys.Log_io.Mseg.skip r (n + 500));
  Alcotest.(check int) "read is the stream position" n
    (Logsys.Log_io.Mseg.read r)

let exact_record_line_roundtrip () =
  let records = Logsys.Collected.merged_by_time (Lazy.force lossless) in
  let some = [ records.(0); records.(Array.length records / 2) ] in
  let nan_rec = { (List.hd some) with Logsys.Record.true_time = Float.nan } in
  List.iter
    (fun r ->
      let back =
        Logsys.Log_io.record_of_line (Logsys.Log_io.record_to_line_exact r)
      in
      Alcotest.(check bool)
        ("round-trip " ^ Logsys.Record.to_string r)
        true
        (Logsys.Record.equal r back && back.true_time = r.true_time
        || (Float.is_nan back.true_time && Float.is_nan r.true_time)))
    (nan_rec :: some)

let codec_segment_roundtrip () =
  let collected = Lazy.force lossless in
  let ordered = Logsys.Collected.merged_by_time collected in
  let seg = Array.sub ordered 0 (min 500 (Array.length ordered)) in
  let decoded = Logsys.Codec.decode_segment (Logsys.Codec.encode_segment seg) in
  Alcotest.(check int) "count" (Array.length seg) (Array.length decoded);
  Array.iteri
    (fun i (r : Logsys.Record.t) ->
      let d = decoded.(i) in
      Alcotest.(check int) "node" r.node d.node;
      Alcotest.(check bool) "kind" true (Logsys.Record.kind_equal r.kind d.kind);
      Alcotest.(check (pair int int)) "key" (r.origin, r.pkt_seq)
        (d.origin, d.pkt_seq);
      Alcotest.(check bool) "truth stripped" true
        (Float.is_nan d.true_time && d.gseq = -1))
    seg;
  Alcotest.check_raises "trailing bytes rejected"
    (Failure "Codec: trailing bytes in segment") (fun () ->
      ignore
        (Logsys.Codec.decode_segment
           (Bytes.cat (Logsys.Codec.encode_segment seg) (Bytes.make 1 'x'))))

(* -- Incremental global flow ---------------------------------------------- *)

(* Stream flows name their records by global stream position, so the
   incremental merge is fed the stream's own flows: on an unbounded
   watermark every packet is flushed whole at the end, so they are the
   batch flows, and the merge must come out the same. *)
let incremental_merge_equals_batch () =
  let collected = lossy_collected 0.2 7 in
  let flows = Array.of_list (batch_flows collected) in
  let batch_items = ref [] in
  let item_string ({ flow; pos } : Refill.Global_flow.event) =
    Refill.Flow.item_to_string flow pos
  in
  let batch_stats =
    Refill.Global_flow.merge collected ~flows ~emit:(fun e ->
        batch_items := item_string e :: !batch_items)
  in
  let inc =
    Refill.Global_flow.Incremental.create
      ~n_nodes:(Logsys.Collected.n_nodes collected)
      ()
  in
  (* Records arrive in stream order and chunked; flows in eviction (not
     key) order — finish must not care. *)
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let i = ref 0 in
  while !i < n do
    let len = min 333 (n - !i) in
    Refill.Global_flow.Incremental.add_records inc (Array.sub ordered !i len);
    i := !i + len
  done;
  let streamed, _ = stream_all ~shards:2 ~chunk:333 collected in
  let shuffled =
    Array.of_list (List.map (fun (e : Refill.Stream.emitted) -> e.flow) streamed)
  in
  let rng = Prelude.Rng.create ~seed:99L in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Prelude.Rng.int rng (i + 1) in
    let tmp = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- tmp
  done;
  Array.iter (Refill.Global_flow.Incremental.add_flow inc) shuffled;
  let inc_items = ref [] in
  let inc_stats =
    Refill.Global_flow.Incremental.finish inc ~emit:(fun e ->
        inc_items := item_string e :: !inc_items)
  in
  Alcotest.(check bool) "stats" true (batch_stats = inc_stats);
  Alcotest.(check (list string)) "items"
    (List.rev !batch_items) (List.rev !inc_items)

(* -- Config --------------------------------------------------------------- *)

let config_validation () =
  (match Refill.Config.validate Refill.Config.default with
  | Ok c -> Alcotest.(check bool) "default valid" true (c = Refill.Config.default)
  | Error e -> Alcotest.failf "default invalid: %s" (Refill.Error.message e));
  List.iter
    (fun bad ->
      match Refill.Config.validate bad with
      | Ok _ -> Alcotest.fail "invalid config accepted"
      | Error e -> Alcotest.(check int) "exit 2" 2 (Refill.Error.exit_code e))
    [
      { Refill.Config.default with watermark = 0 };
      { Refill.Config.default with chunk_events = -3 };
      { Refill.Config.default with jobs = Some 0 };
      { Refill.Config.default with shards = 0 };
      { Refill.Config.default with late_retention = Some (-1) };
    ]

let () =
  Alcotest.run "stream"
    [
      ( "equivalence",
        [
          Alcotest.test_case "lossless stream equals batch" `Quick
            lossless_stream_equals_batch;
          QCheck_alcotest.to_alcotest chunk_invariance;
          QCheck_alcotest.to_alcotest lossy_divergence_is_flagged;
          QCheck_alcotest.to_alcotest sharded_identical_lossless;
          QCheck_alcotest.to_alcotest sharded_identical_lossy;
          QCheck_alcotest.to_alcotest emitted_cause_is_classified;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume is byte-identical" `Quick
            checkpoint_resume_identical;
          Alcotest.test_case "sharded cut/resume is byte-identical" `Quick
            sharded_checkpoint_resume_identical;
          Alcotest.test_case "config conflict on resume rejected" `Quick
            resume_config_conflict_rejected;
          Alcotest.test_case "nonsense headers rejected" `Quick
            resume_rejects_nonsense_headers;
          Alcotest.test_case "failed write keeps the old checkpoint" `Quick
            failed_checkpoint_keeps_old;
          Alcotest.test_case "evicted table is bounded" `Quick
            evicted_table_is_bounded;
          Alcotest.test_case "forgetting counted alike at any shard count"
            `Quick forgetting_counted_alike;
          Alcotest.test_case "garbage rejected" `Quick resume_rejects_garbage;
          Alcotest.test_case "feed after finish" `Quick
            feed_after_finish_raises;
          Alcotest.test_case "a failure poisons the stream" `Quick
            failure_poisons_stream;
          Alcotest.test_case "a feed emits what it evicts" `Quick
            feed_emits_its_evictions;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "the push path allocates nothing" `Quick
            push_path_allocates_nothing;
          Alcotest.test_case "an eviction builds no record" `Quick
            stream_allocation_per_row;
          Alcotest.test_case "negative-node rows ignored at any shard count"
            `Quick negative_nodes_ignored;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "scrapes are consistent during a sharded feed"
            `Quick scrapes_are_consistent;
        ] );
      ( "segments",
        [
          Alcotest.test_case "seg reader round-trip" `Quick
            seg_reader_roundtrip;
          Alcotest.test_case "seg skip" `Quick seg_skip_fast_forwards;
          Alcotest.test_case "exact record lines" `Quick
            exact_record_line_roundtrip;
          Alcotest.test_case "codec segment round-trip" `Quick
            codec_segment_roundtrip;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "incremental merge equals batch" `Quick
            incremental_merge_equals_batch;
        ] );
      ( "api",
        [
          Alcotest.test_case "config validation" `Quick config_validation;
        ] );
    ]
