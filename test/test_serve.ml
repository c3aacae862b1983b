(* The live ingestion server: wire framing, concurrent-feed byte-identity
   against the offline stream, the ack contract (an ack means fed; a
   stream failure is never acked and stops the server), malformed-frame
   containment, SIGTERM-style checkpoint/resume, read timeouts,
   backpressure accounting, and listeners that free their port.

   Every test runs a real in-process server on an ephemeral loopback port
   and talks to it over actual sockets — the same code paths `refill
   serve` and `refill feed` exercise, minus the process boundary. *)

module Serve = Refill_serve
module Obs = Refill_obs

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let sink () = (Lazy.force scenario).sink

let records =
  lazy
    (Logsys.Collected.merged_by_time
       (Scenario.Citysee.collected (Lazy.force scenario)))

(* Split the arrival-order trace into feed-sized chunks. *)
let chunks ~chunk =
  let all = Lazy.force records in
  let n = Array.length all in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min chunk (n - i) in
      go (i + len) (Array.sub all i len :: acc)
  in
  go 0 []

let test_config =
  {
    Refill.Config.default with
    watermark = 2_000;
    shards = 2;
    late_retention = Some 8_000;
  }

(* Emit sink capturing lines in memory; [close] is a no-op so the
   buffer survives [Server.wait]. *)
let buffer_sink b =
  {
    Serve.Emit.write =
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n');
    close = ignore;
  }

(* The offline reference: the same stream the CLI's `reconstruct
   --stream` runs, fed the same chunk sequence, emitting through the
   same line formatter. *)
let offline_emit ?(config = test_config) ?(finish = true) chunk_list =
  let b = Buffer.create 4096 in
  let s = buffer_sink b in
  let st =
    Refill.Stream.create ~config ~sink:(sink ())
      ~emit:(fun e -> Serve.Emit.emit_to s e)
      ()
  in
  List.iter (Refill.Stream.feed st) chunk_list;
  if finish then ignore (Refill.Stream.finish st);
  (Buffer.contents b, st)

let start_server ?(config = test_config) ?checkpoint ?(read_timeout = 5.0)
    ?(max_frame = Serve.Wire.default_max_frame) ?on_segment ?http_port ?emit
    buf =
  match
    Serve.Server.start
      {
        Serve.Server.default_config with
        stream = config;
        sink = sink ();
        emit = Option.value emit ~default:(buffer_sink buf);
        checkpoint;
        read_timeout;
        max_frame;
        on_segment;
        http_port;
      }
  with
  | Ok srv -> srv
  | Error e -> Alcotest.failf "server start: %s" (Refill.Error.message e)

let counter_delta c f =
  let before = Obs.Metrics.Counter.value c in
  let r = f () in
  (r, Obs.Metrics.Counter.value c - before)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- wire framing ------------------------------------------------------------ *)

let wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Serve.Wire.send_client_greeting a;
  let greeting = Bytes.create (String.length Serve.Wire.client_greeting) in
  Alcotest.(check int) "client greeting" (Bytes.length greeting)
    (Unix.read b greeting 0 (Bytes.length greeting));
  Alcotest.(check string) "magic" (Serve.Wire.magic ^ "\n")
    (Bytes.to_string greeting);
  Serve.Wire.write_string b (Serve.Wire.server_greeting ~max_frame:123_456);
  Alcotest.(check int) "negotiated" 123_456 (Serve.Wire.expect_server_greeting a);
  let payload = Bytes.of_string "hello frames" in
  Serve.Wire.write_frame a ~typ:Serve.Wire.frame_data payload;
  let typ, got = Serve.Wire.read_frame b ~max_payload:1024 in
  Alcotest.(check char) "type" Serve.Wire.frame_data typ;
  Alcotest.(check string) "payload" "hello frames" (Bytes.to_string got);
  let ack = Serve.Wire.ack_frame { Serve.Wire.frames = 7; records = 991 } in
  Serve.Wire.write_all b ack 0 (Bytes.length ack);
  let ack = Serve.Wire.read_ack a in
  Alcotest.(check int) "ack frames" 7 ack.Serve.Wire.frames;
  Alcotest.(check int) "ack records" 991 ack.Serve.Wire.records

let wire_rejects_oversize () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Serve.Wire.write_frame a ~typ:Serve.Wire.frame_data (Bytes.create 64);
  match Serve.Wire.read_frame b ~max_payload:16 with
  | _ -> Alcotest.fail "oversized frame accepted"
  | exception Serve.Wire.Protocol_error _ -> ()

(* -- concurrent feed byte-identity ------------------------------------------- *)

(* N connections, chunks dealt round-robin, lockstep acks: connection
   [j mod n] sends chunk [j] and waits for the ack before chunk [j+1]
   goes out on the next connection.  An ack means the chunk was fed, so
   the server must process exactly the offline chunk order — and its emit
   stream must match the offline driver's byte for byte. *)
let concurrent_feed_identical () =
  let chunk_list = chunks ~chunk:97 in
  let reference, refd = offline_emit chunk_list in
  let buf = Buffer.create 4096 in
  let srv = start_server buf in
  let n = 3 in
  let clients =
    Array.init n (fun _ ->
        Serve.Client.connect ~port:(Serve.Server.port srv) ())
  in
  List.iteri
    (fun j seg -> ignore (Serve.Client.send clients.(j mod n) seg))
    chunk_list;
  Array.iter (fun c -> ignore (Serve.Client.finish c)) clients;
  let summary = Serve.Server.stop srv in
  Alcotest.(check int)
    "records processed"
    (Refill.Stream.summary refd).Refill.Stream.events
    summary.Refill.Stream.events;
  Alcotest.(check string) "emit byte-identical" reference (Buffer.contents buf)

(* -- the ack contract -------------------------------------------------------- *)

(* The hook counts a segment only after a 10 ms delay, just before its
   feed: an ack sent before the feed (say, on enqueue) reaches the
   lockstep client before the count moves. *)
let ack_means_fed () =
  let fed = Atomic.make 0 in
  let buf = Buffer.create 4096 in
  let srv =
    start_server
      ~on_segment:(fun () ->
        Thread.delay 0.01;
        Atomic.incr fed)
      buf
  in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  let early = ref 0 in
  List.iteri
    (fun i seg ->
      ignore (Serve.Client.send c seg);
      if Atomic.get fed < i + 1 then incr early)
    (chunks ~chunk:97);
  ignore (Serve.Client.finish c);
  ignore (Serve.Server.stop srv);
  Alcotest.(check int) "acks that arrived before their feed" 0 !early

(* The sink fails on its 5th line; a watermark of 200 makes evictions,
   and so emission, happen mid-feed.  The segment whose feed failed is
   never acked, the client's send fails, and [stop] re-raises the sink's
   own [Failure] — not a rejected connection's "undecodable segment". *)
let stream_failure_stops_server () =
  let lines = ref 0 in
  let emit =
    {
      Serve.Emit.write =
        (fun _ ->
          incr lines;
          if !lines = 5 then failwith "emit sink broke");
      close = ignore;
    }
  in
  let hooks = Atomic.make 0 in
  let srv =
    start_server
      ~config:{ test_config with watermark = 200 }
      ~on_segment:(fun () -> Atomic.incr hooks)
      ~emit (Buffer.create 16)
  in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  let acked = ref 0 in
  let send_failed =
    List.exists
      (fun seg ->
        match Serve.Client.send c seg with
        | _ ->
            incr acked;
            false
        | exception (Serve.Wire.Protocol_error _ | Unix.Unix_error _) -> true)
      (chunks ~chunk:97)
  in
  Serve.Client.close c;
  Alcotest.(check bool) "a send failed" true send_failed;
  Alcotest.(check bool)
    (Printf.sprintf "acked frames (%d) < segments fed (%d)" !acked
       (Atomic.get hooks))
    true
    (!acked < Atomic.get hooks);
  match Serve.Server.stop srv with
  | _ -> Alcotest.fail "stop returned a summary from a failed stream"
  | exception Failure m ->
      Alcotest.(check string) "the sink's failure" "emit sink broke" m

(* -- malformed input containment --------------------------------------------- *)

let with_raw_conn srv f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.Server.port srv));
  f fd

(* Reading until EOF proves the server closed the connection rather than
   hanging or crashing. *)
let read_to_eof fd =
  let b = Bytes.create 4096 in
  let rec go () = if Unix.read fd b 0 4096 > 0 then go () in
  try go () with Unix.Unix_error _ -> ()

(* The wire fuzzer: up to three connections send a random greeting and a
   random frame sequence (valid data frames, end-of-stream, undecodable
   payloads, unknown types, out-of-range lengths, the last frame
   possibly cut short), while a clean client feeds the whole trace on a
   fourth.  Each fuzzed connection must get exactly the greeting and the
   acks of its valid frames before its first violation, the stream must
   hold the clean trace plus exactly those acked frames' records, and the
   clean client's flows must equal offline output.  Fuzzed records carry seqs
   past [fuzz_seq], so their packets are told apart, and the watermark
   never evicts mid-stream, so interleaved records cannot move the clean
   packets' flows (the final flush emits in key order). *)
type fuzz_frame =
  | Data of Logsys.Record.t array
  | Corrupt of string  (** A data frame whose payload cannot decode. *)
  | End
  | Bad_type of char
  | Bad_length of int

let fuzz_seq = 1_000_000
let fuzz_max_frame = 2048

let fuzz_config =
  { Refill.Config.default with watermark = 1 lsl 40; shards = 2 }

let frame_bytes f =
  let frame typ payload =
    let b = Bytes.create (5 + String.length payload) in
    Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
    Bytes.set b 4 typ;
    Bytes.blit_string payload 0 b 5 (String.length payload);
    Bytes.to_string b
  in
  match f with
  | Data rs -> frame 'D' (Bytes.to_string (Logsys.Codec.encode_segment rs))
  | Corrupt p -> frame 'D' p
  | End -> frame 'E' ""
  | Bad_type c -> frame c "xyz"
  | Bad_length n ->
      let b = Bytes.of_string (frame 'D' "abc") in
      Bytes.set_int32_be b 0 (Int32.of_int n);
      Bytes.to_string b

(* What the server owes a fuzzed connection: its greeting, then one ack
   per valid frame up to the first violation or the end-of-stream; and
   the records those acked frames put in the stream (every trace record
   has a node, so each one counts as a processed event). *)
let fuzz_expected greeting frames =
  if greeting <> Serve.Wire.client_greeting then ("", 0)
  else
    let ack frames records =
      Bytes.to_string (Serve.Wire.ack_frame { Serve.Wire.frames; records })
    in
    let rec acks fr rc = function
      | Data rs :: rest ->
          let rc = rc + Array.length rs in
          let later, total = acks (fr + 1) rc rest in
          (ack (fr + 1) rc :: later, total)
      | End :: _ -> ([ ack fr rc ], rc)
      | _ -> ([], rc)
    in
    let acks, records = acks 0 0 frames in
    ( String.concat ""
        (Serve.Wire.server_greeting ~max_frame:fuzz_max_frame :: acks),
      records )

let gen_fuzz_conn =
  let open QCheck.Gen in
  let trace = Lazy.force records in
  let n = Array.length trace in
  let data =
    let* off = int_bound (n - 1) and* len = int_bound 30 in
    let len = min len (n - off) in
    return
      (Array.map
         (fun (r : Logsys.Record.t) -> { r with pkt_seq = r.pkt_seq + fuzz_seq })
         (Array.sub trace off len))
  in
  let corrupt =
    let* rs = data and* junk = string_size ~gen:char (int_range 1 6) in
    let seg = Bytes.to_string (Logsys.Codec.encode_segment rs) in
    oneofl
      [
        seg ^ junk;
        String.sub seg 0 (String.length seg - 1);
        "\x7f" ^ junk;
      ]
  in
  let frame =
    frequency
      [
        (6, map (fun rs -> Data rs) data);
        (1, map (fun p -> Corrupt p) corrupt);
        (1, return End);
        (1, map (fun c -> Bad_type c)
              (map Char.chr (oneof [ int_range 0 67; int_range 70 255 ])));
        (1, map (fun n -> Bad_length n)
              (oneofl [ fuzz_max_frame + 1; 1 lsl 30; -1; min_int ]));
      ]
  in
  let greeting =
    frequency
      [
        (6, return Serve.Wire.client_greeting);
        (1, oneofl [ "refill-wire v9\n"; "refill-wire v1\r\n"; "refill" ]);
        (1, map (fun s -> "x" ^ s) (string_size ~gen:printable (int_bound 80)));
      ]
  in
  let* greeting = greeting and* frames = list_size (int_bound 8) frame in
  let bytes = greeting ^ String.concat "" (List.map frame_bytes frames) in
  (* Cut into the last frame, or not at all. *)
  let* cut =
    match List.rev frames with
    | last :: _ -> frequency [ (2, return 0); (1, int_range 1 (String.length (frame_bytes last))) ]
    | [] -> return 0
  in
  let sent = String.sub bytes 0 (String.length bytes - cut) in
  let owed, records =
    fuzz_expected greeting
      (if cut > 0 then List.filteri (fun i _ -> i < List.length frames - 1) frames
       else frames)
  in
  return (sent, owed, records)

(* The clean client's offline output and event count. *)
let fuzz_reference =
  lazy
    (let out, st = offline_emit ~config:fuzz_config (chunks ~chunk:512) in
     (out, (Refill.Stream.summary st).Refill.Stream.events))

let read_all fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents b

let clean_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         match String.split_on_char ' ' l with
         | _ :: _ :: seq :: _ -> int_of_string seq < fuzz_seq
         | _ -> false)
  |> String.concat "\n"

let fuzz_survives =
  QCheck.Test.make ~count:40
    ~name:"fuzzed frames kill the connection, not the server"
    (QCheck.make
       ~print:(fun cs ->
         String.concat "\n---\n"
           (List.map (fun (s, _, _) -> String.escaped s) cs))
       QCheck.Gen.(list_size (int_range 1 3) gen_fuzz_conn))
    (fun conns ->
      let buf = Buffer.create 4096 in
      let srv =
        start_server ~config:fuzz_config ~max_frame:fuzz_max_frame
          ~read_timeout:5.0 buf
      in
      let port = Serve.Server.port srv in
      let fds =
        List.map
          (fun (sent, _, _) ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            Serve.Wire.write_string fd sent;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            fd)
          conns
      in
      let c = Serve.Client.connect ~port () in
      List.iter (fun seg -> ignore (Serve.Client.send c seg)) (chunks ~chunk:512);
      ignore (Serve.Client.finish c);
      let got = List.map (fun fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> read_all fd)) fds in
      let summary = Serve.Server.stop srv in
      List.iter2
        (fun got (_, owed, _) ->
          if got <> owed then
            QCheck.Test.fail_reportf "got %S, owed %S" got owed)
        got conns;
      (* Only acked frames reach the stream: a rejected frame's rows, even
         fully decoded before the violation, must not. *)
      let reference, events = Lazy.force fuzz_reference in
      let owed = List.fold_left (fun n (_, _, r) -> n + r) events conns in
      if summary.Refill.Stream.events <> owed then
        QCheck.Test.fail_reportf "the stream processed %d records, owed %d"
          summary.Refill.Stream.events owed;
      clean_lines (Buffer.contents buf) = clean_lines reference
      || QCheck.Test.fail_report "the clean client's flows differ from offline")

let read_timeout_kills_idle_conn () =
  let buf = Buffer.create 64 in
  let srv = start_server ~read_timeout:0.2 buf in
  with_raw_conn srv (fun fd ->
      Serve.Wire.send_client_greeting fd;
      ignore (Serve.Wire.expect_server_greeting fd);
      (* Send nothing; the server must hang up on us. *)
      let t0 = Unix.gettimeofday () in
      read_to_eof fd;
      Alcotest.(check bool)
        "hung up within ~5x the timeout"
        true
        (Unix.gettimeofday () -. t0 < 1.0));
  ignore (Serve.Server.stop srv)

(* -- checkpoint / resume ------------------------------------------------------ *)

let checkpoint_resume_identical () =
  let ckpt = Filename.temp_file "serve-test" ".ckpt" in
  Sys.remove ckpt;
  Fun.protect ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
  @@ fun () ->
  let chunk_list = chunks ~chunk:173 in
  let cut = List.length chunk_list / 2 in
  let first = List.filteri (fun i _ -> i < cut) chunk_list in
  let rest = List.filteri (fun i _ -> i >= cut) chunk_list in
  (* Reference: one offline driver over the whole sequence, frontier left
     open (serve-with-checkpoint never flushes) — what the two live runs
     must jointly equal. *)
  let reference, ref_stream = offline_emit ~finish:false chunk_list in
  (* Live run 1: feed the first half, stop (checkpoint-and-exit). *)
  let buf = Buffer.create 4096 in
  let srv = start_server ~checkpoint:ckpt buf in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  List.iter (fun seg -> ignore (Serve.Client.send c seg)) first;
  ignore (Serve.Client.finish c);
  ignore (Serve.Server.stop srv);
  let header ic =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  in
  Alcotest.(check string)
    "v2 checkpoint written" "# refill-stream-ckpt v2"
    (header (open_in ckpt));
  (* Live run 2: resume from the checkpoint, feed the rest, stop. *)
  let srv = start_server ~checkpoint:ckpt buf in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  List.iter (fun seg -> ignore (Serve.Client.send c seg)) rest;
  ignore (Serve.Client.finish c);
  let summary = Serve.Server.stop srv in
  Alcotest.(check string)
    "emit across restart byte-identical" reference (Buffer.contents buf);
  (* Per-shard counter attribution is re-homed on resume (a checkpoint can
     resume into any shard count), so compare the totals, not the file. *)
  let totals (s : Refill.Stream.summary) =
    [ s.events; s.flows; s.complete; s.incomplete ]
  in
  Alcotest.(check (list int))
    "summary totals survive the restart"
    (totals (Refill.Stream.summary ref_stream))
    (totals summary)

(* -- backpressure ------------------------------------------------------------- *)

(* Two pipelined connections, one half of the chunks each, against a
   slow stream: frames of one connection wait in its buffer while the
   loop feeds the other's frame in the same iteration, and the stall
   counter says so. *)
let busy_stream_stalls_other_conn () =
  let buf = Buffer.create 4096 in
  let srv = start_server ~on_segment:(fun () -> Thread.delay 0.002) buf in
  let chunk_list = chunks ~chunk:97 in
  let _, refd = offline_emit chunk_list in
  let half = List.length chunk_list / 2 in
  let halves =
    [
      List.filteri (fun i _ -> i < half) chunk_list;
      List.filteri (fun i _ -> i >= half) chunk_list;
    ]
  in
  let (), stalls =
    counter_delta Serve.Telemetry.backpressure_stalls_total (fun () ->
        let clients =
          List.map
            (fun _ -> Serve.Client.connect ~port:(Serve.Server.port srv) ())
            halves
        in
        List.iter2
          (fun c segs -> List.iter (Serve.Client.send_nowait c) segs)
          clients halves;
        List.iter (fun c -> ignore (Serve.Client.finish c)) clients)
  in
  let summary = Serve.Server.stop srv in
  Alcotest.(check bool) "stalled at least once" true (stalls > 0);
  Alcotest.(check int)
    "every record still landed"
    (Refill.Stream.summary refd).Refill.Stream.events
    summary.Refill.Stream.events

(* -- /metrics endpoint -------------------------------------------------------- *)

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Serve.Wire.write_string fd
    (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let n = Unix.read fd chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  (try go () with Unix.Unix_error _ -> ());
  Buffer.contents b

let metrics_endpoint_serves () =
  let buf = Buffer.create 4096 in
  let srv = start_server ~http_port:0 buf in
  let http_port =
    match Serve.Server.http_port srv with
    | Some p -> p
    | None -> Alcotest.fail "no http port"
  in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  ignore (Serve.Client.send c (Array.sub (Lazy.force records) 0 100));
  let body = http_get ~port:http_port "/metrics" in
  Alcotest.(check bool) "200" true (contains body "200 OK");
  Alcotest.(check bool)
    "counter exposed" true
    (contains body "refill_serve_frames_total");
  Alcotest.(check bool)
    "gauge exposed" true
    (contains body "refill_serve_connections{state=\"streaming\"} 1");
  Alcotest.(check bool)
    "404 on unknown path" true
    (contains (http_get ~port:http_port "/nope") "404");
  ignore (Serve.Client.finish c);
  ignore (Serve.Server.stop srv)

(* -- emit publisher ------------------------------------------------------------ *)

let emit_socket_streams_outcomes () =
  let chunk_list = chunks ~chunk:512 in
  let reference, _ = offline_emit chunk_list in
  (* [publish] has no bound-port accessor, so use a fixed high port. *)
  let port = 39_417 in
  let pub = Serve.Emit.publish ~port in
  let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sub (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* The tap accepts the subscriber at its first write. *)
  let got = Buffer.create 4096 in
  let reader =
    Thread.create
      (fun () ->
        let b = Bytes.create 65536 in
        let rec go () =
          let n = try Unix.read sub b 0 65536 with Unix.Unix_error _ -> 0 in
          if n > 0 then begin
            Buffer.add_subbytes got b 0 n;
            go ()
          end
        in
        go ())
      ()
  in
  String.split_on_char '\n' reference
  |> List.iter (fun l -> if l <> "" then pub.Serve.Emit.write l);
  (* Close disconnects the subscriber, ending the reader. *)
  Thread.delay 0.2;
  pub.Serve.Emit.close ();
  Thread.join reader;
  (try Unix.close sub with Unix.Unix_error _ -> ());
  Alcotest.(check string)
    "subscriber got every line" reference (Buffer.contents got)

(* A subscriber that hangs up mid-run turns the publisher's next writes
   into EPIPE; with SIGPIPE left at its default disposition that is a
   process-killing signal, not a per-subscriber error.  The server (and
   this test binary) must survive and the durable emit stream must be
   unaffected. *)
let emit_subscriber_hangup_survives () =
  let chunk_list = chunks ~chunk:97 in
  let reference, refd = offline_emit chunk_list in
  let pub_port = 39_423 in
  let pub = Serve.Emit.publish ~port:pub_port in
  let buf = Buffer.create 4096 in
  let srv =
    start_server ~emit:(Serve.Emit.tee (buffer_sink buf) pub) buf
  in
  let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sub (Unix.ADDR_INET (Unix.inet_addr_loopback, pub_port));
  (* The subscriber vanishes; the tap accepts it at its first write, and
     a later write hits EPIPE. *)
  Unix.close sub;
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  List.iter (fun seg -> ignore (Serve.Client.send c seg)) chunk_list;
  ignore (Serve.Client.finish c);
  let summary = Serve.Server.stop srv in
  Alcotest.(check int)
    "every record still landed"
    (Refill.Stream.summary refd).Refill.Stream.events
    summary.Refill.Stream.events;
  Alcotest.(check string)
    "durable emit unaffected by the hangup" reference (Buffer.contents buf)

(* -- listeners free their port ----------------------------------------------- *)

(* A stopped endpoint must let a new one bind its port, and the new one
   must be the one that answers. *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

let http_port_reusable_after_stop () =
  let srv = start_server ~http_port:0 (Buffer.create 16) in
  let port = Option.get (Serve.Server.http_port srv) in
  ignore (Serve.Server.stop srv);
  let srv = start_server ~http_port:port (Buffer.create 16) in
  Alcotest.(check bool)
    "the new endpoint answers" true
    (contains (http_get ~port "/metrics") "200 OK");
  ignore (Serve.Server.stop srv)

let emit_port_reusable_after_close () =
  let port = free_port () in
  let pub = Serve.Emit.publish ~port in
  pub.Serve.Emit.close ();
  match Serve.Emit.publish ~port with
  | exception Unix.Unix_error (e, _, _) ->
      Alcotest.failf "republish on %d: %s" port (Unix.error_message e)
  | pub ->
      let sub = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sub (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      pub.Serve.Emit.write "hello";
      pub.Serve.Emit.close ();
      let b = Bytes.create 64 in
      let n = try Unix.read sub b 0 64 with Unix.Unix_error _ -> 0 in
      Unix.close sub;
      Alcotest.(check string)
        "the new tap's subscriber got the line" "hello\n"
        (Bytes.sub_string b 0 n)

(* -- startup failure ----------------------------------------------------------- *)

let http_port_busy_is_error () =
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close blocker with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind blocker (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen blocker 1;
  let busy =
    match Unix.getsockname blocker with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  match
    Serve.Server.start
      {
        Serve.Server.default_config with
        stream = test_config;
        sink = sink ();
        http_port = Some busy;
      }
  with
  | Ok srv ->
      ignore (Serve.Server.stop srv);
      Alcotest.fail "server started despite a busy --http-port"
  | Error (Refill.Error.Io _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Refill.Error.message e)

(* A max-frame every client would refuse in the greeting is a config
   error, not a server that starts and then fails each handshake. *)
let nonpositive_max_frame_is_error () =
  match
    Serve.Server.start
      {
        Serve.Server.default_config with
        stream = test_config;
        sink = sink ();
        max_frame = 0;
      }
  with
  | Ok srv ->
      ignore (Serve.Server.stop srv);
      Alcotest.fail "server started with max_frame = 0"
  | Error (Refill.Error.Invalid_config _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Refill.Error.message e)

(* -- client-side frame limit --------------------------------------------------- *)

let oversized_record_fails_before_send () =
  let buf = Buffer.create 64 in
  (* A 4-byte frame limit: no record encoding can fit, but the empty
     end-of-stream frame still does. *)
  let srv = start_server ~max_frame:4 buf in
  let c = Serve.Client.connect ~port:(Serve.Server.port srv) () in
  Alcotest.(check int) "negotiated the tiny limit" 4 (Serve.Client.max_frame c);
  (match Serve.Client.send c (Array.sub (Lazy.force records) 0 1) with
  | _ -> Alcotest.fail "unsendable record was sent anyway"
  | exception Serve.Client.Record_too_large { encoded; max_frame } ->
      Alcotest.(check bool) "reported sizes coherent" true (encoded > max_frame));
  (* Nothing hit the wire, so the connection is still clean. *)
  let ack = Serve.Client.finish c in
  Alcotest.(check int) "no frames accepted" 0 ack.Serve.Wire.frames;
  ignore (Serve.Server.stop srv)

(* -- The flow-line renderer --------------------------------------------- *)

(* The Printf renderers the Buffer ones replaced, verbatim except that
   [line] reads the cause from [e.cause] (it used to classify the flow
   again): the oracle the renderer is pinned to. *)
module Oracle = struct
  let node_str n =
    if n = Refill.Protocol.unknown_node then "?" else string_of_int n

  let item_to_string (i : Refill.Flow.item) =
    let base =
      match i.payload with
      | Some r -> (
          match Logsys.Record.link r with
          | Some (s, d) ->
              Printf.sprintf "%s-%s %s" (node_str s) (node_str d)
                (Refill.Protocol.label_name i.label)
          | None ->
              Printf.sprintf "%s@%s"
                (Refill.Protocol.label_name i.label)
                (node_str i.node))
      | None ->
          Printf.sprintf "%s@%s"
            (Refill.Protocol.label_name i.label)
            (node_str i.node)
    in
    if i.inferred then "[" ^ base ^ "]" else base

  let to_string (t : Refill.Flow.t) =
    String.concat ", " (List.map item_to_string (Refill.Flow.items t))

  let outcome_char = function
    | Refill.Stream.Complete -> 'C'
    | Refill.Stream.Incomplete -> 'I'

  let line (e : Refill.Stream.emitted) =
    let f = e.flow in
    Printf.sprintf "%c %d %d %s | %s" (outcome_char e.outcome) f.origin f.seq
      (Logsys.Cause.name e.cause)
      (to_string f)

  let prov_line (f : Refill.Flow.t) =
    if Array.length f.prov = 0 then None
    else begin
      let b = Buffer.create (8 * Array.length f.prov) in
      Buffer.add_char b 'p';
      Array.iter
        (fun pv ->
          Buffer.add_char b ' ';
          Buffer.add_string b
            (string_of_int (pv : Refill.Provenance.t :> int)))
        f.prov;
      Some (Buffer.contents b)
    end
end

let gen_emitted =
  let open QCheck.Gen in
  (* Small ids, the unknown peer (-1, printed "?"), negative and extreme
     ints. *)
  let id =
    frequency
      [
        (4, int_range (-2) 120);
        (1, oneofl [ min_int; max_int; -1_000_000; 1 lsl 40 ]);
        (1, int);
      ]
  in
  let record =
    let* node = id and* peer = id and* tag = int_range 0 7 in
    let* origin = id and* pkt_seq = id and* gseq = id in
    return
      ({
         node;
         kind = Logsys.Codec.kind_of_tag tag (Some peer);
         origin;
         pkt_seq;
         true_time = 0.5;
         gseq;
       }
        : Logsys.Record.t)
  in
  let item =
    let* node = id
    and* label =
      oneofl
        Refill.Protocol.
          [ L_gen; L_recv; L_dup; L_overflow; L_trans; L_ack; L_timeout;
            L_deliver ]
    and* payload = opt record
    and* inferred = bool in
    return
      ({ node; label; payload; inferred; entered = Refill.Protocol.holding }
        : Refill.Flow.item)
  in
  let prov =
    map3
      (fun m e1 e2 ->
        Refill.Provenance.make2 m ~src:Refill.Protocol.holding
          ~dst:Refill.Protocol.sent ~e1 ~e2)
      (oneofl
         Refill.Provenance.
           [ Logged; Intra_inference; Inter_inference; Stall_recovery;
             Anchor_carry ])
      (int_range (-1) 3_000_000) (int_range (-1) 3_000_000)
  in
  let* origin = id and* seq = id and* items = list_size (int_range 0 12) item in
  let* prov = array_size (oneofl [ 0; List.length items ]) prov
  and* outcome = oneofl Refill.Stream.[ Complete; Incomplete ]
  and* cause = oneofl Logsys.Cause.all in
  let stats =
    { Refill.Engine.emitted_logged = 0; emitted_inferred = 0; skipped = 0 }
  in
  return
    ({
       flow = Refill.Flow.of_items ~origin ~seq ~stats ~prov items;
       outcome;
       cause;
     }
      : Refill.Stream.emitted)

let renderer_matches_oracle =
  QCheck.Test.make ~name:"flow lines equal the Printf renderer" ~count:2000
    (QCheck.make ~print:Oracle.line gen_emitted)
    (fun e ->
      Serve.Emit.line e = Oracle.line e
      && Refill.Flow.to_string e.flow = Oracle.to_string e.flow
      && List.for_all
           (fun k ->
             Refill.Flow.item_to_string e.flow k
             = Oracle.item_to_string (Refill.Flow.item e.flow k))
           (List.init (Refill.Flow.length e.flow) Fun.id)
      && Serve.Emit.prov_line e.flow = Oracle.prov_line e.flow)

(* [emit_to Emit.null] renders nothing, so a pass without a sink (say
   [reconstruct --stream] with no [--emit-file]) formats no line only to
   drop it.  Rendering a line allocates at least its buffer and string,
   well over one word per flow. *)
let null_sink_renders_nothing () =
  let flows =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:500 gen_emitted
  in
  let emit = Serve.Emit.emit_to Serve.Emit.null in
  let before = Gc.minor_words () in
  List.iter emit flows;
  let words = Gc.minor_words () -. before in
  if words >= float_of_int (List.length flows) then
    Alcotest.failf "%.0f minor words for %d flows into Emit.null" words
      (List.length flows)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "frame/greeting/ack roundtrip" `Quick
            wire_roundtrip;
          Alcotest.test_case "oversized frame rejected before read" `Quick
            wire_rejects_oversize;
        ] );
      ( "identity",
        [
          Alcotest.test_case "3 lockstep connections equal offline stream"
            `Quick concurrent_feed_identical;
          Alcotest.test_case "checkpoint/resume across restart" `Quick
            checkpoint_resume_identical;
        ] );
      ( "ack",
        [
          Alcotest.test_case "an ack means fed" `Quick ack_means_fed;
          Alcotest.test_case "stream failure stops the server" `Quick
            stream_failure_stops_server;
        ] );
      ( "containment",
        [
          QCheck_alcotest.to_alcotest fuzz_survives;
          Alcotest.test_case "idle connection times out" `Quick
            read_timeout_kills_idle_conn;
          Alcotest.test_case "emit subscriber hangup does not kill the \
                              server (SIGPIPE)"
            `Quick emit_subscriber_hangup_survives;
          Alcotest.test_case "busy --http-port is a clean Error" `Quick
            http_port_busy_is_error;
          Alcotest.test_case "max_frame = 0 is Invalid_config" `Quick
            nonpositive_max_frame_is_error;
          Alcotest.test_case "oversized record fails client-side before \
                              sending"
            `Quick oversized_record_fails_before_send;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "busy stream stalls the other conn" `Quick
            busy_stream_stalls_other_conn;
        ] );
      ( "observability",
        [
          Alcotest.test_case "/metrics endpoint" `Quick metrics_endpoint_serves;
          Alcotest.test_case "emit publisher streams outcomes" `Quick
            emit_socket_streams_outcomes;
        ] );
      ( "listeners",
        [
          Alcotest.test_case "/metrics port reusable after stop" `Quick
            http_port_reusable_after_stop;
          Alcotest.test_case "emit port reusable after close" `Quick
            emit_port_reusable_after_close;
        ] );
      ( "render",
        [
          QCheck_alcotest.to_alcotest renderer_matches_oracle;
          Alcotest.test_case "a null sink renders nothing" `Quick
            null_sink_renders_nothing;
        ] );
    ]
