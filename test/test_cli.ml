(* End-to-end tests driving the built `refill` binary: the metrics dump on
   error exits, sharded streaming from a cold start, and the `explain`
   worked example (text and JSON). *)

module J = Refill_obs.Json

let cli =
  (* Under `dune runtest` the cwd is the test directory inside _build, so
     the sibling bin/ path resolves; the env var and repo-root fallbacks
     cover manual invocation. *)
  let candidates =
    (match Sys.getenv_opt "REFILL_CLI" with Some p -> [ p ] | None -> [])
    @ [
        Filename.concat ".." (Filename.concat "bin" "refill_cli.exe");
        "_build/default/bin/refill_cli.exe";
      ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "refill_cli.exe not found (tried %d paths)"
              (List.length candidates)

let tmp suffix = Filename.temp_file "refill_cli_test" suffix

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the CLI, capturing stdout and stderr; returns (exit code, stdout,
   stderr). *)
let run_cli_err args =
  let out = tmp ".out" and err = tmp ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

let run_cli args =
  let code, out, _ = run_cli_err args in
  (code, out)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A small simulated dump shared by the explain tests. *)
let log_file =
  lazy
    (let path = tmp ".log" in
     let code, _ =
       run_cli
         [
           "simulate"; "--days"; "1"; "--nodes"; "25"; "--seed"; "7"; "-q";
           "-o"; path;
         ]
     in
     Alcotest.(check int) "simulate exits 0" 0 code;
     path)

(* -- Error paths keep their observability contract ------------------------- *)

let malformed_log_still_dumps_metrics () =
  let bad = tmp ".log" in
  let metrics = tmp ".prom" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove bad;
      if Sys.file_exists metrics then Sys.remove metrics)
    (fun () ->
      let oc = open_out bad in
      output_string oc "this is not a refill log\n";
      close_out oc;
      let code, _ =
        run_cli [ "reconstruct"; bad; "--metrics=" ^ metrics; "-q" ]
      in
      Alcotest.(check bool) "malformed input is a nonzero exit" true
        (code <> 0);
      Alcotest.(check bool) "metrics file written on the error path" true
        (Sys.file_exists metrics);
      let text = read_file metrics in
      Alcotest.(check bool) "dump is Prometheus text" true
        (contains text "# TYPE"))

let missing_file_still_dumps_metrics () =
  let metrics = tmp ".prom" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists metrics then Sys.remove metrics)
    (fun () ->
      let code, _ =
        run_cli
          [ "analyze"; "/nonexistent/refill.log"; "--metrics=" ^ metrics; "-q" ]
      in
      Alcotest.(check bool) "missing input is a nonzero exit" true (code <> 0);
      Alcotest.(check bool) "metrics survive the I/O error" true
        (Sys.file_exists metrics))

(* A key the dump does not hold: trace says so on stdout, explain on
   stderr, and both exit 1.  Each run is a fresh process, so the empty
   packet is the first its domain reconstructs. *)
let missing_packet_exits_1 () =
  let log = Lazy.force log_file in
  let key = [ "--origin"; "9999"; "--seq"; "0" ] in
  let code, out, _ = run_cli_err ("trace" :: log :: key) in
  Alcotest.(check int) "trace exits 1" 1 code;
  Alcotest.(check string) "trace says so"
    "no surviving records for packet (9999, 0)\n" out;
  let code, _, err = run_cli_err ("explain" :: log :: key) in
  Alcotest.(check int) "explain exits 1" 1 code;
  Alcotest.(check string) "explain says so"
    "refill: no surviving records for packet (9999, 0)\n" err

(* [commands] on a dump holding [contents] each exit 1 with one stderr
   line, "refill: <dump>: malformed input: ...": one reader, one error
   surface. *)
let malformed_for contents commands =
  let bad = tmp ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let oc = open_out bad in
  output_string oc contents;
  close_out oc;
  List.iter
    (fun args ->
      let what = Printf.sprintf "%s on %S" (String.concat " " args) contents in
      let code, _, err = run_cli_err (args @ [ bad; "-q" ]) in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      Alcotest.(check bool)
        (what ^ " reports malformed input on one line")
        true
        (String.starts_with
           ~prefix:("refill: " ^ bad ^ ": malformed input: ")
           err
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    commands

let readers =
  [
    [ "analyze" ];
    [ "trace"; "--origin"; "1"; "--seq"; "0" ];
    [ "explain" ];
    [ "reconstruct" ];
    [ "reconstruct"; "--stream" ];
  ]

let header = "# refill-log v1\n# nodes 3\n# sink 0\n"

(* An origin past the int range is malformed input to every subcommand
   that reads the dump: none wraps it, and all report it the same way. *)
let overflowing_origin_is_malformed () =
  malformed_for
    (header
    ^ "r 1 gen - 18446744073709551617 0 0.5 1\n\
       r 1 trans 0 18446744073709551617 0 0.6 2\n\
       r 0 recv 1 18446744073709551617 0 0.7 3\n")
    readers

(* An empty or header-only dump is malformed input, not an uncaught
   [End_of_file]. *)
let empty_dump_is_malformed () =
  malformed_for "" readers;
  malformed_for "# refill-log v1\n" readers

(* Integer fields are decimal digits: [int_of_string]'s hex and
   underscore spellings are malformed to every reader, in header lines
   too, and in the truth lines of the readers that load them. *)
let non_decimal_int_is_malformed () =
  let record = "r 1 gen - 1 0 0.500000 0\n" in
  malformed_for (header ^ "r 1 gen - 0x1 0 0.5 1\n") readers;
  malformed_for (header ^ "r 1 gen - 1_0 0 0.5 1\n") readers;
  malformed_for ("# refill-log v1\n# nodes 0x3\n# sink 0\n" ^ record) readers;
  malformed_for ("# refill-log v1\n# nodes 3\n# sink 0_0\n" ^ record) readers;
  List.iter
    (fun truth ->
      malformed_for (header ^ record ^ truth ^ "\n")
        [ [ "analyze" ]; [ "trace"; "--origin"; "1"; "--seq"; "0" ] ])
    [
      "t 0x1 0 delivered - 0.5 0.6 1,0";
      "t 1 0_0 delivered - 0.5 0.6 1,0";
      "t 1 0 timeout +2 0.5 0.6 1,2";
      "t 1 0 delivered - 0.5 0.6 1,0x0";
    ]

(* A --provenance or --metrics FILE that is a dump or a checkpoint (what
   `--provenance a.txt b.txt` names, as cmdliner takes the next word) is
   refused before anything is read, and left byte for byte. *)
let report_never_overwrites_input () =
  let log = Lazy.force log_file in
  let victim = tmp ".log" and ckpt = tmp ".ckpt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ victim; ckpt ])
  @@ fun () ->
  let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  write victim (read_file log);
  Sys.remove ckpt;
  let code, _ =
    run_cli [ "reconstruct"; "--stream"; "--checkpoint"; ckpt; log; "-q" ]
  in
  Alcotest.(check int) "checkpoint written" 0 code;
  List.iter
    (fun (target, args) ->
      let before = read_file target in
      let what = String.concat " " args in
      let code, _, err = run_cli_err args in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      Alcotest.(check bool)
        (what ^ ": one line naming the file")
        true
        (String.starts_with ~prefix:("refill: " ^ target ^ ": ") err
        && List.length (String.split_on_char '\n' (String.trim err)) = 1);
      Alcotest.(check bool) (what ^ " leaves the file") true
        (read_file target = before))
    [
      (victim, [ "analyze"; "--provenance"; victim; log ]);
      (victim, [ "reconstruct"; "--provenance"; victim; log ]);
      (victim, [ "trace"; "--metrics"; victim; "--origin"; "1"; "--seq"; "0"; log ]);
      (ckpt, [ "analyze"; "--provenance"; ckpt; log ]);
      (ckpt, [ "reconstruct"; "--stream"; "--metrics"; ckpt; log ]);
    ]

(* A bare optional-value flag right before the dump takes it as its FILE;
   the dump is still read as LOGFILE, with the flag bare, exactly as with
   the flag after it.  A missing LOGFILE stays a usage error. *)
let flag_before_logfile () =
  let log = Lazy.force log_file in
  List.iter
    (fun (before, after) ->
      let what = String.concat " " before in
      let code, out = run_cli before in
      let code', out' = run_cli after in
      Alcotest.(check int) (what ^ " exits 0") 0 code;
      Alcotest.(check int) (what ^ ": reference exits 0") 0 code';
      (* The metrics dump holds timings; the report lines before it
         must agree. *)
      let head o =
        List.filteri (fun i _ -> i < 2) (String.split_on_char '\n' o)
      in
      Alcotest.(check (list string)) (what ^ " reads the dump") (head out')
        (head out))
    [
      ([ "analyze"; "--provenance"; log ], [ "analyze"; log; "--provenance" ]);
      ([ "analyze"; "--metrics"; log ], [ "analyze"; log; "--metrics" ]);
      ( [ "reconstruct"; "--metrics"; log ],
        [ "reconstruct"; log; "--metrics" ] );
      ( [ "reconstruct"; "--provenance"; log ],
        [ "reconstruct"; log; "--provenance" ] );
    ];
  List.iter
    (fun args ->
      let code, _, err = run_cli_err args in
      Alcotest.(check int) (String.concat " " args ^ " exits 124") 124 code;
      Alcotest.(check bool) "names LOGFILE" true (contains err "LOGFILE"))
    [ [ "analyze" ]; [ "analyze"; "--provenance"; "no-such-report.json" ] ]

(* -- serve ------------------------------------------------------------------ *)

let serve_sigterm_flushes_metrics () =
  (* The signal path must go through the same with_metrics_flush exit as a
     normal return: SIGTERM → drain → exit 0 with the metrics file written
     and the emit file complete. *)
  let log = Lazy.force log_file in
  let metrics = tmp ".prom" in
  let emit = tmp ".txt" in
  let port = 39_613 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ metrics; emit ])
  @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--port"; string_of_int port; "--emit-file"; emit;
        "--metrics=" ^ metrics; "-q";
      |]
      Unix.stdin null null
  in
  Unix.close null;
  (* `feed` retries while the server is still binding, so no sleep. *)
  let code, out = run_cli [ "feed"; "--port"; string_of_int port; log ] in
  Alcotest.(check int) "feed exits 0" 0 code;
  Alcotest.(check bool) "feed reports server acks" true
    (contains out "server acked");
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "serve exits 0 on SIGTERM" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "metrics flushed on the signal path" true
    (Sys.file_exists metrics);
  Alcotest.(check bool) "serve counters in the dump" true
    (contains (read_file metrics) "refill_serve_frames_total");
  Alcotest.(check bool) "flow outcomes written" true
    (String.length (read_file emit) > 0)

(* A loopback listener the test owns, on an ephemeral port; [f] gets the
   listening socket and its port. *)
let with_listener f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> f sock port
  | Unix.ADDR_UNIX _ -> assert false

let one_line_tcp_error what err =
  Alcotest.(check bool)
    (what ^ ": one stderr line starting refill: tcp://127.0.0.1:")
    true
    (String.starts_with ~prefix:"refill: tcp://127.0.0.1:" err
    && List.length (String.split_on_char '\n' (String.trim err)) = 1)

(* A port that does not speak refill-wire (here: one answering the
   greeting with an HTTP status line) is a peer error, not a crash. *)
let feed_to_foreign_port_is_io_error () =
  let log = Lazy.force log_file in
  with_listener @@ fun sock port ->
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept sock in
        let b = Bytes.create 1 in
        while Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n' do
          ()
        done;
        let reply = "HTTP/1.1 400 Bad Request\r\n\r\n" in
        ignore (Unix.write_substring fd reply 0 (String.length reply));
        Unix.close fd)
      ()
  in
  let code, _, err =
    run_cli_err [ "feed"; "--port"; string_of_int port; log; "-q" ]
  in
  Thread.join peer;
  Alcotest.(check int) "feed exits 1" 1 code;
  one_line_tcp_error "feed" err

let feed_rejects_nonpositive_chunk () =
  let log = Lazy.force log_file in
  let code, _, err = run_cli_err [ "feed"; "--chunk"; "0"; log ] in
  Alcotest.(check int) "feed --chunk 0 exits 2" 2 code;
  Alcotest.(check bool) "names --chunk" true (contains err "--chunk")

(* A port nothing listens on: bound, then closed. *)
let free_port () =
  with_listener (fun sock port ->
      Unix.close sock;
      port)

(* `feed` opens its dump before it connects: a bad dump is reported at
   once, naming the file, not after the connect retries give up. *)
let feed_reports_a_bad_dump_first () =
  let port = string_of_int (free_port ()) in
  let empty = tmp ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove empty) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let code, _, err = run_cli_err [ "feed"; "--port"; port; empty ] in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "empty dump exits 1" 1 code;
  Alcotest.(check string) "reported as malformed"
    (Printf.sprintf "refill: %s: malformed input: Log_io: bad header \"\"\n"
       empty)
    err;
  if took > 2.5 then Alcotest.failf "feed took %.1f s to report it" took;
  let missing = empty ^ ".missing" in
  let code, _, err = run_cli_err [ "feed"; "--port"; port; missing ] in
  Alcotest.(check int) "missing dump exits 1" 1 code;
  Alcotest.(check bool) "names the file" true
    (String.starts_with ~prefix:("refill: " ^ missing ^ ": ") err)

let serve_busy_emit_socket_is_io_error () =
  with_listener @@ fun _ port ->
  let code, _, err =
    run_cli_err
      [ "serve"; "--port"; "0"; "--emit-socket"; string_of_int port; "-q" ]
  in
  Alcotest.(check int) "serve exits 1" 1 code;
  one_line_tcp_error "serve" err;
  Alcotest.(check bool) "says the address is in use" true
    (contains err "Address already in use")

(* A `refill serve` started through sh, so [prefix] (a ulimit) applies to
   it alone; stdout and stderr are dropped. *)
let spawn_serve ~prefix args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let cmd =
    Printf.sprintf "%s && exec %s serve %s" prefix (Filename.quote cli)
      (String.concat " " (List.map Filename.quote args))
  in
  let pid =
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin null
      null
  in
  Unix.close null;
  pid

let rec connect_to ?(tries = 50) port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> fd
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.1;
      connect_to ~tries:(tries - 1) port

(* Send the client greeting and read the server's line; [None] when none
   comes within 2 s. *)
let answer fd =
  Refill_serve.Wire.send_client_greeting fd;
  let b = Buffer.create 64 and one = Bytes.create 1 in
  let rec go () =
    match Unix.select [ fd ] [] [] 2.0 with
    | [], _, _ -> None
    | _ -> (
        match Unix.read fd one 0 1 with
        | 1 when Bytes.get one 0 <> '\n' ->
            Buffer.add_char b (Bytes.get one 0);
            go ()
        | _ | (exception Unix.Unix_error _) -> Some (Buffer.contents b))
  in
  go ()

let answered_ok = function
  | Some l -> String.starts_with ~prefix:"refill-wire v1 ok" l
  | None -> false

(* Connections until one is not answered [ok]; returns that answer and
   every socket, the last one first. *)
let connect_until_not_ok ~limit port =
  let rec go fds =
    if List.length fds >= limit then
      Alcotest.failf "%d connections all answered ok" limit
    else
      let fd = connect_to port in
      match answer fd with
      | a when answered_ok a -> go (fd :: fds)
      | a -> (a, fd :: fds)
  in
  go []

(* Run [f] against a server spawned by [spawn_serve]; it must exit 0 on
   SIGTERM, and a failing check kills it. *)
let with_serve ~prefix args f =
  let pid = spawn_serve ~prefix args in
  let status =
    Fun.protect
      ~finally:(fun () -> try Unix.kill pid Sys.sigkill with _ -> ())
      (fun () ->
        f ();
        Unix.kill pid Sys.sigterm;
        snd (Unix.waitpid [] pid))
  in
  Alcotest.(check bool) "serve exits 0 on SIGTERM" true
    (status = Unix.WEXITED 0)

(* Under `ulimit -n 24` accept runs out of descriptors after a few
   connections.  The server must stop accepting without spinning or
   dying, and accept again once they close: a later `feed` is served
   and its flows equal offline output. *)
let serve_survives_descriptor_exhaustion () =
  let log = Lazy.force log_file in
  let emit = tmp ".txt" and offline = tmp ".txt" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ emit; offline ])
  @@ fun () ->
  let port = 39_641 in
  with_serve ~prefix:"ulimit -n 24"
    [ "--port"; string_of_int port; "--watermark"; "2000"; "--emit-file";
      emit; "-q" ]
    (fun () ->
      let last, fds = connect_until_not_ok ~limit:40 port in
      Alcotest.(check bool) "the last connection got no answer" true
        (last = None);
      Alcotest.(check bool) "some were served first" true
        (List.length fds > 1);
      List.iter Unix.close fds;
      (* Builds that stop accepting at the first EMFILE never answer. *)
      let fd = connect_to port in
      let fresh = answer fd in
      Unix.close fd;
      Alcotest.(check bool) "a new connection is answered" true
        (answered_ok fresh);
      let code, out = run_cli [ "feed"; "--port"; string_of_int port; log ] in
      Alcotest.(check int) "feed exits 0" 0 code;
      Alcotest.(check bool) "feed acked" true (contains out "server acked"));
  let code, _ =
    run_cli
      [ "reconstruct"; "--stream"; "--watermark"; "2000"; "--emit-file";
        offline; log; "-q" ]
  in
  Alcotest.(check int) "reconstruct exits 0" 0 code;
  Alcotest.(check string) "serve equals offline" (read_file offline)
    (read_file emit)

(* Inherited descriptors fill the table to just below FD_SETSIZE (1,024),
   which select cannot watch past.  Connections below it are served; the
   first at it is refused with a greeting other than ok. *)
let serve_refuses_past_fd_setsize () =
  let port = 39_647 in
  let nulls = ref [] in
  (try
     while true do
       let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
       nulls := fd :: !nulls;
       ignore (Unix.select [ fd ] [] [] 0.0)
     done
   with Unix.Unix_error ((Unix.EINVAL | Unix.EMFILE), _, _) -> ());
  (* Free the top 21, so the server's listener and a few connections fit
     below 1,024. *)
  List.iteri (fun i fd -> if i < 21 then Unix.close fd) !nulls;
  with_serve ~prefix:"ulimit -n 2048" [ "--port"; string_of_int port; "-q" ]
  @@ fun () ->
  (* The server holds its copies now. *)
  List.iteri (fun i fd -> if i >= 21 then Unix.close fd) !nulls;
  let last, fds = connect_until_not_ok ~limit:80 port in
  Alcotest.(check (option string)) "refused" (Some "refill-wire v1 busy") last;
  let served = List.nth fds (List.length fds - 1) in
  let record : Logsys.Record.t =
    { node = 1; kind = Logsys.Codec.kind_of_tag 0 None; origin = 1;
      pkt_seq = 0; true_time = 0.0; gseq = 0 }
  in
  Refill_serve.Wire.write_frame served ~typ:Refill_serve.Wire.frame_data
    (Logsys.Codec.encode_segment [| record |]);
  let ack = Refill_serve.Wire.read_ack served in
  Alcotest.(check (pair int int)) "an earlier connection is served" (1, 1)
    (ack.frames, ack.records);
  List.iter Unix.close fds

(* -- reconstruct --------------------------------------------------------------- *)

(* Cold-start race regression: Protocol's per-role tables and FSM caches
   used to be filled lazily on first use, so shard workers starting in a
   fresh process could force them concurrently (and occasionally died with
   [CamlinternalLazy.Undefined]).  They are now built when the module
   initializes; every fresh 4-shard process must exit 0 and print the
   one-shard summary. *)
let sharded_cold_start_matches_one_shard () =
  let log = tmp ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let code, _ =
    run_cli
      [
        "simulate"; "--days"; "1"; "--nodes"; "25"; "--seed"; "11";
        "--stream-order"; "-q"; "-o"; log;
      ]
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  (* A short watermark makes the workers evict (and reconstruct) while
     records are still arriving.  The peak frontier is a per-shard sum, an
     upper bound on the one-shard peak, so it is masked. *)
  let summary shards =
    let code, out =
      run_cli
        [
          "reconstruct"; "--stream"; "--shards"; shards; "--watermark"; "500";
          "--chunk-events"; "256"; log; "-q";
        ]
    in
    Alcotest.(check int) (shards ^ " shard(s): exit 0") 0 code;
    List.map
      (fun line ->
        if contains line "peak frontier" then
          String.sub line 0 (String.rindex line ',')
        else line)
      (String.split_on_char '\n' out)
  in
  let reference = summary "1" in
  Alcotest.(check bool) "one-shard summary printed" true
    (List.exists (fun l -> contains l "reconstructed") reference);
  for _ = 1 to 10 do
    Alcotest.(check (list string)) "4 shards print the 1-shard summary"
      reference (summary "4")
  done

(* Tracing does not change how a run executes: a traced `--jobs 2` run
   records its packets' spans on both domains' rows and prints what the
   one-domain and untraced runs print, and the two fan-outs publish the
   same series and counter values.  Two days at 100 nodes give thousands
   of packets, so both domains get work. *)
let traced_run_stays_parallel () =
  let log = tmp ".log" and trace = tmp ".json" in
  let m1 = tmp ".prom" and m2 = tmp ".prom" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ log; trace; m1; m2 ])
  @@ fun () ->
  let code, _ = run_cli [ "simulate"; "--days"; "2"; "-q"; "-o"; log ] in
  Alcotest.(check int) "simulate exits 0" 0 code;
  let reconstruct args =
    let code, out =
      run_cli ([ "reconstruct"; log; "--global-flow"; "-q" ] @ args)
    in
    Alcotest.(check int) (String.concat " " args ^ ": exit 0") 0 code;
    out
  in
  let traced =
    reconstruct [ "--jobs"; "2"; "--trace-out"; trace; "--metrics=" ^ m2 ]
  in
  Alcotest.(check string) "untraced stdout" (reconstruct [ "--jobs"; "2" ])
    traced;
  Alcotest.(check string) "one-domain stdout"
    (reconstruct [ "--jobs"; "1"; "--metrics=" ^ m1 ])
    traced;
  let tids =
    match J.parse (read_file trace) with
    | Error e -> Alcotest.failf "trace is not JSON: %s" e
    | Ok doc -> (
        match J.member "traceEvents" doc with
        | Some (J.Arr events) ->
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match (J.member "name" e, J.member "tid" e) with
                   | Some (J.Str "refill.packet"), Some (J.Num tid) -> Some tid
                   | _ -> None)
                 events)
        | _ -> Alcotest.fail "no traceEvents array")
  in
  if List.length tids < 2 then
    Alcotest.failf "refill.packet spans on %d tid(s)" (List.length tids);
  (* A sample line is its series, a space and its value. *)
  let samples path =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let series l = String.sub l 0 (String.rindex l ' ') in
  let counters =
    List.filter (fun l ->
        String.ends_with ~suffix:"_total"
          (List.hd (String.split_on_char '{' (series l))))
  in
  let s1 = samples m1 and s2 = samples m2 in
  Alcotest.(check (list string)) "same series" (List.map series s1)
    (List.map series s2);
  Alcotest.(check (list string)) "equal counters" (counters s1) (counters s2)

(* A traced stream shows its rounds and packets: a 2-shard `reconstruct
   --stream` of two days records a [refill.stream.shard] span per shard
   per round, on two rows (tids), one [refill.stream.release] span per
   segment and one [refill.packet] span per emitted flow, and prints what
   the untraced run prints. *)
let stream_trace_shows_rounds () =
  let log = tmp ".log" and trace = tmp ".json" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ log; trace ])
  @@ fun () ->
  let code, _ = run_cli [ "simulate"; "--days"; "2"; "-q"; "-o"; log ] in
  Alcotest.(check int) "simulate exits 0" 0 code;
  let reconstruct args =
    let code, out =
      run_cli ([ "reconstruct"; log; "--stream"; "--shards"; "2"; "-q" ] @ args)
    in
    Alcotest.(check int) "reconstruct exits 0" 0 code;
    out
  in
  let traced = reconstruct [ "--trace-out"; trace ] in
  Alcotest.(check string) "untraced stdout" (reconstruct []) traced;
  let segments, flows =
    let line =
      List.find
        (String.starts_with ~prefix:"streamed ")
        (String.split_on_char '\n' traced)
    in
    Scanf.sscanf line "streamed %_d records in %d segment(s): %d flows"
      (fun s f -> (s, f))
  in
  let events =
    match J.parse (read_file trace) with
    | Error e -> Alcotest.failf "trace is not JSON: %s" e
    | Ok doc -> (
        match J.member "traceEvents" doc with
        | Some (J.Arr events) -> events
        | _ -> Alcotest.fail "no traceEvents array")
  in
  let named name =
    List.filter (fun e -> J.member "name" e = Some (J.Str name)) events
  in
  let shard_tids =
    List.sort_uniq compare
      (List.filter_map (J.member "tid") (named "refill.stream.shard"))
  in
  Alcotest.(check int) "shard spans on two tids" 2 (List.length shard_tids);
  Alcotest.(check int) "shard spans: two per segment" (2 * segments)
    (List.length (named "refill.stream.shard"));
  Alcotest.(check int) "one release span per segment" segments
    (List.length (named "refill.stream.release"));
  Alcotest.(check int) "one packet span per flow" flows
    (List.length (named "refill.packet"))

(* `trace` reconstructs its packet through [Reconstruct.packet], whose one
   [refill.packet] span is the trace's only one. *)
let trace_records_one_packet_span () =
  let log = Lazy.force log_file and trace = tmp ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let origin, seq =
    let line =
      List.find
        (String.starts_with ~prefix:"r ")
        (String.split_on_char '\n' (read_file log))
    in
    match String.split_on_char ' ' line with
    | _ :: _ :: _ :: _ :: origin :: seq :: _ -> (origin, seq)
    | _ -> Alcotest.failf "unexpected record line %S" line
  in
  let code, _ =
    run_cli
      [ "trace"; log; "--origin"; origin; "--seq"; seq; "--trace-out"; trace;
        "-q" ]
  in
  Alcotest.(check int) "trace exits 0" 0 code;
  match J.parse (read_file trace) with
  | Error e -> Alcotest.failf "trace is not JSON: %s" e
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.Arr events) ->
          Alcotest.(check int) "refill.packet spans" 1
            (List.length
               (List.filter
                  (fun e -> J.member "name" e = Some (J.Str "refill.packet"))
                  events))
      | _ -> Alcotest.fail "no traceEvents array")

(* -- check ------------------------------------------------------------------ *)

let baseline_path =
  (* Copied next to the test binary by the dune deps clause; the repo-root
     fallback covers manual invocation. *)
  match
    List.find_opt Sys.file_exists
      [ "check_baseline.json"; "test/check_baseline.json" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "check_baseline.json not found"

let check_matches_baseline () =
  (* The committed snapshot is the full deterministic report over every
     builtin model: any diagnostic that appears or vanishes shows up as a
     byte diff, so regressions can't slip through silently.  A legitimate
     change regenerates the file in the same commit. *)
  let code, out =
    run_cli [ "check"; "ctp"; "dissem"; "broken-demo"; "--json"; "-q" ]
  in
  Alcotest.(check int) "check exits 1 (known LOSS001/PRE001/CLS001 errors)" 1
    code;
  let baseline = read_file baseline_path in
  if out <> baseline then
    Alcotest.failf
      "check --json diverged from test/check_baseline.json (%d vs %d bytes); \
       if the change is deliberate, regenerate the snapshot"
      (String.length out) (String.length baseline)

let check_strict_exit_contract () =
  (* dissem carries warnings but no errors: exit 0 by default, and
     --strict must promote the warnings to a failing exit. *)
  let code, _ = run_cli [ "check"; "dissem"; "-q" ] in
  Alcotest.(check int) "dissem passes by default" 0 code;
  let strict_code, _ = run_cli [ "check"; "dissem"; "--strict"; "-q" ] in
  Alcotest.(check int) "--strict promotes dissem warnings" 1 strict_code

(* -- explain ---------------------------------------------------------------- *)

let explain_text_works () =
  let log = Lazy.force log_file in
  let code, out = run_cli [ "explain"; log; "-q" ] in
  Alcotest.(check int) "explain exits 0" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "explain output mentions %S" needle)
        true (contains out needle))
    [ "packet"; "logged" ]

let explain_json_parses () =
  let log = Lazy.force log_file in
  let code, out = run_cli [ "explain"; log; "--json"; "-q" ] in
  Alcotest.(check int) "explain --json exits 0" 0 code;
  match J.parse out with
  | Error e -> Alcotest.failf "explain JSON did not parse: %s" e
  | Ok doc -> (
      (match J.member "schema" doc with
      | Some (J.Str "refill-explain-v1") -> ()
      | _ -> Alcotest.fail "missing refill-explain-v1 schema tag");
      match J.member "events" doc with
      | Some (J.Arr (_ :: _ as events)) ->
          List.iter
            (fun e ->
              match
                Option.bind (J.member "provenance" e) (J.member "mechanism")
              with
              | Some (J.Str _) -> ()
              | _ -> Alcotest.fail "event without a provenance mechanism")
            events
      | _ -> Alcotest.fail "no events array")

let () =
  Alcotest.run "refill-cli"
    [
      ( "error-paths",
        [
          Alcotest.test_case "malformed log writes metrics" `Quick
            malformed_log_still_dumps_metrics;
          Alcotest.test_case "missing file writes metrics" `Quick
            missing_file_still_dumps_metrics;
          Alcotest.test_case "a missing packet exits 1" `Quick
            missing_packet_exits_1;
          Alcotest.test_case "overflowing origin is malformed" `Quick
            overflowing_origin_is_malformed;
          Alcotest.test_case "empty dump is malformed" `Quick
            empty_dump_is_malformed;
          Alcotest.test_case "non-decimal integer is malformed" `Quick
            non_decimal_int_is_malformed;
          Alcotest.test_case "a report never overwrites a dump" `Quick
            report_never_overwrites_input;
          Alcotest.test_case "a flag before LOGFILE leaves it LOGFILE" `Quick
            flag_before_logfile;
        ] );
      ( "serve",
        [
          Alcotest.test_case "SIGTERM exits 0 and flushes metrics" `Quick
            serve_sigterm_flushes_metrics;
          Alcotest.test_case "feed to a foreign port is an I/O error" `Quick
            feed_to_foreign_port_is_io_error;
          Alcotest.test_case "feed --chunk 0 is a usage error" `Quick
            feed_rejects_nonpositive_chunk;
          Alcotest.test_case "feed reports a bad dump before connecting"
            `Quick feed_reports_a_bad_dump_first;
          Alcotest.test_case "busy --emit-socket is an I/O error" `Quick
            serve_busy_emit_socket_is_io_error;
          Alcotest.test_case "out of descriptors, then served again" `Quick
            serve_survives_descriptor_exhaustion;
          Alcotest.test_case "a descriptor past FD_SETSIZE is refused" `Quick
            serve_refuses_past_fd_setsize;
        ] );
      ( "reconstruct",
        [
          Alcotest.test_case "4 shards cold-start like 1 shard" `Quick
            sharded_cold_start_matches_one_shard;
          Alcotest.test_case "tracing leaves the run parallel" `Quick
            traced_run_stays_parallel;
          Alcotest.test_case "stream traces show rounds and packets" `Quick
            stream_trace_shows_rounds;
          Alcotest.test_case "trace records one packet span" `Quick
            trace_records_one_packet_span;
        ] );
      ( "check",
        [
          Alcotest.test_case "json report matches committed baseline" `Quick
            check_matches_baseline;
          Alcotest.test_case "--strict exit contract" `Quick
            check_strict_exit_contract;
        ] );
      ( "explain",
        [
          Alcotest.test_case "text output" `Quick explain_text_works;
          Alcotest.test_case "json output" `Quick explain_json_parses;
        ] );
    ]
