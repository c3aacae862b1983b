(* The REFILL benchmark harness (see README.md).

   Subcommands, all driven by run.py:

     gen --scenario S --seed N --order node|time -o DUMP
         simulate the CitySee scenario, lossify it, write the dump;
         prints the surviving record count.
     reference --dump DUMP
         one untraced single-domain stream pass; prints its emit digest
         (what serve-30d must reproduce).
     run --workload W --dump DUMP --seconds S --trace 0|1 --out DIR
         [--expect DIGEST] [--deadline SEC] [--checkpoint-every N]
         [--frame-records N] [--stall SEC]
         timed passes until S seconds have elapsed; the last stdout line
         is a JSON report of every pass and every correctness check.
     client --port P --dump DUMP --frames N --frame-records N --trace 0|1 -o FILE
         the serve-30d client process, spawned by each serve pass.
     checks
         feeds each correctness check a passing and a failing input. *)

module J = Refill_obs.Json
module Arena = Logsys.Arena
module Mseg = Logsys.Log_io.Mseg
module Emit = Refill_serve.Emit
module Server = Refill_serve.Server
module Client = Refill_serve.Client

let now = Trace.now
let sprintf = Printf.sprintf

(* -- workload shapes ---------------------------------------------------------- *)

let read_chunk = 4096 (* Mseg records per next_into, batch and stream *)
let default_frame_records = 512 (* serve-30d client frame *)
let ack_window = 64 (* serve-30d: frames in flight before draining acks *)
let serve_shards = 2
let stream_config = Refill.Config.default (* watermark 50_000, 1 shard *)
let watermark = stream_config.watermark

(* -- input generation ---------------------------------------------------------- *)

let scenario = function
  | "default" -> Scenario.Citysee.default
  | "tiny" -> Scenario.Citysee.tiny
  | s -> failwith (sprintf "unknown scenario %S" s)

let gen ~scenario_name ~seed ~time_order path =
  let params = { (scenario scenario_name) with seed = Int64.of_int seed } in
  let t = Scenario.Citysee.run params in
  let collected =
    Scenario.Citysee.collected_lossy t Logsys.Loss_model.default
  in
  Logsys.Log_io.save_file path ~sink:t.sink ~time_order collected;
  Printf.printf "%d\n" (Logsys.Collected.total collected)

(* -- the input, as the harness (not the program) sees it ------------------------ *)

let key ~origin ~seq = (origin lsl 40) lor seq

type input = {
  path : string;
  records : int;
  sink : int;
  last : (int, int) Hashtbl.t;  (** Packet key -> position of its last record. *)
}

(* Untimed pre-pass: the record count and each key's last position, which
   place every flow's trigger record for the emit-lag metrics. *)
let scan path =
  let r = Mseg.open_file path in
  let a = Arena.create ~capacity:read_chunk () in
  let last = Hashtbl.create 65536 in
  let pos = ref 0 in
  while
    Arena.clear a;
    Mseg.next_into r a ~max_records:read_chunk > 0
  do
    for i = 0 to Arena.length a - 1 do
      Hashtbl.replace last
        (key ~origin:(Arena.origin a i) ~seq:(Arena.pkt_seq a i))
        !pos;
      incr pos
    done
  done;
  { path; records = !pos; sink = Mseg.sink r; last }

(* -- emit digest and lag recorder ---------------------------------------------- *)

(* FNV-1a over each line plus its newline, in native 63-bit ints: an
   order-sensitive digest of the emitted byte stream. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x4bf29ce484222325

let fnv_line h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  (!h lxor 10) * fnv_prime

let hex h = sprintf "%016x" h

(* The benchmark's emit sink: every line is timestamped on arrival, keyed
   by its packet and folded into the digest. *)
type recorder = {
  mutable n : int;
  mutable keys : int array;
  mutable times : float array;
  mutable hash : int;
}

let recorder () =
  {
    n = 0;
    keys = Array.make 65536 0;
    times = Array.make 65536 0.;
    hash = fnv_basis;
  }

(* "C 3 17 delivered | ..." -> the key of origin 3, seq 17. *)
let line_key l =
  let len = String.length l in
  let rec int_at i acc =
    if i < len && l.[i] >= '0' && l.[i] <= '9' then
      int_at (i + 1) ((acc * 10) + Char.code l.[i] - 48)
    else (acc, i)
  in
  let origin, i = int_at 2 0 in
  let seq, _ = int_at (i + 1) 0 in
  key ~origin ~seq

let record r line =
  let t = now () in
  if r.n = Array.length r.keys then begin
    r.keys <- Array.append r.keys (Array.make r.n 0);
    r.times <- Array.append r.times (Array.make r.n 0.)
  end;
  r.keys.(r.n) <- line_key line;
  r.times.(r.n) <- t;
  r.n <- r.n + 1;
  r.hash <- fnv_line r.hash line

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let ms_quantiles xs =
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  (1000. *. percentile xs 0.5, 1000. *. percentile xs 0.99)

type lag = {
  p50_ms : float;
  p99_ms : float;
  seconds : float array;  (** Every triggered flow's lag. *)
  flush : float array;  (** Lags of the flows flushed at end of input. *)
  late : int;
}

(* Each flow's trigger is the record whose arrival evicts it: the key's last
   record position + watermark + 1 (0-based).  The lag runs from when the
   segment carrying that record entered ([entry.(pos / seg_records)]) until
   the line reached the sink.  Flows flushed at end of input have no
   trigger record: timed from [end_entry], they are kept apart in [flush].
   They are about 4% of the flows, so pooled with the rest they would make
   the p99 a point inside the one end-of-input flush of each pass.  A key
   emitted twice is a late fragment: counted and left out. *)
let lags inp r ~seg_records ~entry ~end_entry =
  let seen = Hashtbl.create (2 * r.n) in
  let xs = Array.make r.n 0. and m = ref 0 and late = ref 0 in
  let fl = Array.make r.n 0. and f = ref 0 in
  for i = 0 to r.n - 1 do
    let k = r.keys.(i) in
    if Hashtbl.mem seen k then incr late
    else begin
      Hashtbl.add seen k ();
      let last =
        match Hashtbl.find_opt inp.last k with
        | Some p -> p
        | None -> failwith "emitted a flow for a key absent from the input"
      in
      let trig = last + watermark + 1 in
      if trig >= inp.records then begin
        fl.(!f) <- r.times.(i) -. end_entry;
        incr f
      end
      else begin
        xs.(!m) <- r.times.(i) -. entry.(trig / seg_records);
        incr m
      end
    end
  done;
  let xs = Array.sub xs 0 !m in
  let p50_ms, p99_ms = ms_quantiles xs in
  { p50_ms; p99_ms; seconds = xs; flush = Array.sub fl 0 !f; late = !late }

let flush_p99_ms l = snd (ms_quantiles l.flush)

(* -- correctness checks --------------------------------------------------------- *)

type check = { name : string; ok : bool; detail : string }

let check_keys ~flows ~keys =
  {
    name = "batch flows = packet keys";
    ok = flows = keys;
    detail = sprintf "%d flows, %d keys" flows keys;
  }

let check_agree digests =
  {
    name = "passes agree";
    ok = List.for_all (String.equal (List.hd digests)) digests;
    detail = String.concat " " (List.sort_uniq compare digests);
  }

let check_expected ~expect digest =
  {
    name = "serve digest = stream digest";
    ok = String.equal expect digest;
    detail = sprintf "serve %s, stream %s" digest expect;
  }

let check_acks ~records ~acked =
  {
    name = "final ack covers every record";
    ok = acked = records;
    detail = sprintf "%d of %d records acked" acked records;
  }

let check_json c =
  J.Obj [ ("name", J.Str c.name); ("ok", J.Bool c.ok); ("detail", J.Str c.detail) ]

(* -- pass results ------------------------------------------------------------- *)

type pass = {
  wall : float;  (** The workload's timed window. *)
  lag : lag option;
  serve_setup : float;  (** Server.start + handshake (serve-30d only). *)
  digest : string;
  checks : check list;
  failed : int;  (** Records lost to a failed pass. *)
  errors : string list;
  layers : (string * float) list;  (** Traced passes only. *)
}

let num x = J.Num x
let int_num n = J.Num (float_of_int n)

(* -- span helpers -------------------------------------------------------------- *)

let self_of layers name =
  match List.assoc_opt name layers with
  | Some (l : Trace.layer) -> l.self
  | None -> 0.

let top_level_time ?track_name () =
  List.fold_left (fun acc (_, (l : Trace.layer)) -> acc +. l.self) 0.
    (Trace.layers ?track_name ())

(* -- batch-30d ----------------------------------------------------------------- *)

let batch_pass inp =
  let tr = Trace.track "main" in
  let t0 = now () in
  let reader = Mseg.open_file inp.path in
  let arena = Arena.create () in
  while
    Trace.with_ tr "ingest" (fun () ->
        Mseg.next_into reader arena ~max_records:read_chunk)
    > 0
  do
    ()
  done;
  let t_input = now () in
  let packets =
    Trace.with_ tr "index" (fun () ->
        Arena.Packets.build arena ~n_nodes:(Mseg.n_nodes reader))
  in
  let flows = ref [] and summary = ref Refill.Reconstruct.empty_summary in
  Trace.with_ tr "reconstruct" (fun () ->
      Refill.Reconstruct.run_arena packets ~sink:(Mseg.sink reader)
        ~emit:(fun f ->
          flows := f :: !flows;
          summary := Refill.Reconstruct.summary_add !summary f));
  let flows = Array.of_list (List.rev !flows) in
  let items = ref 0 in
  let gs =
    Trace.with_ tr "global_flow" (fun () ->
        Refill.Global_flow.merge_from
          (Refill.Global_flow.Arena_index packets)
          ~flows
          ~emit:(fun _ -> incr items))
  in
  let causes = Hashtbl.create 8 in
  let done_at = Array.make (Array.length flows) 0. in
  Array.iteri
    (fun i f ->
      let v = Trace.with_ tr "classify" (fun () -> Refill.Classify.classify f) in
      done_at.(i) <- now ();
      let c = Logsys.Cause.name v.cause in
      Hashtbl.replace causes c
        (1 + Option.value ~default:0 (Hashtbl.find_opt causes c)))
    flows;
  let t1 = now () in
  let s = !summary in
  let keys = List.length (Arena.Packets.keys packets) in
  let stats =
    sprintf
      "flows=%d logged=%d inferred=%d skipped=%d gf.events=%d gf.logged=%d \
       gf.inferred=%d gf.relaxed=%d gf.items=%d causes=%s"
      s.packets s.logged_events s.inferred_events s.skipped_events gs.events
      gs.logged gs.inferred gs.relaxed !items
      (String.concat ","
         (List.map
            (fun (c, n) -> sprintf "%s:%d" c n)
            (List.sort compare (List.of_seq (Hashtbl.to_seq causes)))))
  in
  (* Batch output exists only once the whole pipeline is done: every flow's
     trigger is the end of input. *)
  let lag_ms = Array.map (fun t -> t -. t_input) done_at in
  let p50_ms, p99_ms = ms_quantiles lag_ms in
  let layers = Trace.layers () in
  Printf.printf "  batch: %s\n%!" stats;
  {
    wall = t1 -. t0;
    lag = Some { p50_ms; p99_ms; seconds = lag_ms; flush = [||]; late = 0 };
    serve_setup = 0.;
    digest = hex (fnv_line fnv_basis stats);
    checks = [ check_keys ~flows:(Array.length flows) ~keys ];
    failed = 0;
    errors = [];
    layers =
      [
        ("ingest.s", self_of layers "ingest");
        ("index.s", self_of layers "index");
        ("reconstruct.s", self_of layers "reconstruct");
        ("reconstruct.logged_events", float s.logged_events);
        ("reconstruct.inferred_events", float s.inferred_events);
        ("reconstruct.skipped_events", float s.skipped_events);
        ("global_flow.s", self_of layers "global_flow");
        ("global_flow.events", float gs.events);
        ("global_flow.relaxed", float gs.relaxed);
        ("classify.s", self_of layers "classify");
        ("coverage", top_level_time () /. (t1 -. t0));
      ];
  }

(* -- stream-30d ---------------------------------------------------------------- *)

let stream_pass ?(checkpoint_every = 250_000) ~ckpt inp =
  let tr = Trace.track "main" in
  let rec_ = recorder () in
  let sink = { Emit.write = record rec_; close = ignore } in
  let n_segs = (inp.records + read_chunk - 1) / read_chunk in
  let entry = Array.make (max 1 n_segs) 0. in
  let ckpts = ref 0 and ckpt_bytes = ref 0 in
  let t0 = now () in
  let reader = Mseg.open_file inp.path in
  let arena = Arena.create ~capacity:read_chunk () in
  let st =
    Refill.Stream.create ~config:stream_config ~sink:(Mseg.sink reader)
      ~emit:(fun e -> Trace.with_ tr "emit" (fun () -> Emit.emit_to sink e))
      ()
  in
  let seg = ref 0 and processed = ref 0 in
  let next_ckpt = ref checkpoint_every in
  while
    Arena.clear arena;
    Trace.with_ tr "ingest" (fun () ->
        Mseg.next_into reader arena ~max_records:read_chunk)
    > 0
  do
    entry.(!seg) <- now ();
    incr seg;
    Trace.with_ tr "stream.feed" (fun () ->
        Refill.Stream.feed_arena st (Arena.slice_all arena));
    processed := !processed + Arena.length arena;
    if !processed >= !next_ckpt then begin
      next_ckpt := !next_ckpt + checkpoint_every;
      Trace.with_ tr "stream.checkpoint" (fun () ->
          match Refill.Stream.checkpoint_file st ckpt with
          | Ok () -> ()
          | Error e -> failwith (Refill.Error.message e));
      incr ckpts;
      ckpt_bytes := !ckpt_bytes + (Unix.stat ckpt).st_size
    end
  done;
  let end_entry = now () in
  let summary =
    Trace.with_ tr "stream.finish" (fun () -> Refill.Stream.finish st)
  in
  let t1 = now () in
  let lag = lags inp rec_ ~seg_records:read_chunk ~entry ~end_entry in
  let layers = Trace.layers () in
  Printf.printf
    "  stream: %d lines, %d evictions, %d incomplete, %d late, peak frontier \
     %d, %d checkpoints (%d bytes)\n%!"
    rec_.n summary.evictions summary.incomplete summary.late_fragments
    summary.peak_frontier_events !ckpts !ckpt_bytes;
  {
    wall = t1 -. t0;
    lag = Some lag;
    serve_setup = 0.;
    digest = hex rec_.hash;
    checks = [];
    failed = 0;
    errors = [];
    layers =
      [
        ("ingest.s", self_of layers "ingest");
        ("stream.feed.s", self_of layers "stream.feed");
        ("stream.finish.s", self_of layers "stream.finish");
        ("stream.checkpoint.s", self_of layers "stream.checkpoint");
        ("stream.checkpoint.bytes", float !ckpt_bytes);
        ("stream.evictions", float summary.evictions);
        ("stream.peak_frontier_events", float summary.peak_frontier_events);
        ("stream.incomplete", float summary.incomplete);
        ("emit.s", self_of layers "emit");
        ("emit.lines", float rec_.n);
        ("emit.flush_lag_ms.p99", flush_p99_ms lag);
        ("coverage", top_level_time () /. (t1 -. t0));
      ];
  }

(* -- serve-30d ----------------------------------------------------------------- *)

let counter = Refill_obs.Metrics.Counter.value

(* Serve-side feed time is not visible from outside the server; estimate it
   from the ingest thread's segment hand-offs.  While the next segment was
   already sent when segment [k]'s hook fired, the ingest thread went
   from feeding [k] to popping [k+1]: that gap, minus the emit time inside
   it, is feed time. *)
let serve_feed_estimate ~sends ~hooks ~n ~emits =
  let total = ref 0. in
  let ei = ref 0 and emits = Array.of_list emits in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) emits;
  for k = 0 to n - 2 do
    let lo = hooks.(k) and hi = hooks.(k + 1) in
    let emit_in = ref 0. in
    while !ei < Array.length emits && fst emits.(!ei) < hi do
      if fst emits.(!ei) >= lo then emit_in := !emit_in +. snd emits.(!ei);
      incr ei
    done;
    if sends.(k + 1) < lo then total := !total +. (hi -. lo -. !emit_in)
  done;
  !total

(* The serve-30d client, run as its own process like `refill feed`: one
   connection streams the dump from disk in [frame_records]-record frames,
   draining acks whenever [ack_window] frames are unacknowledged.  It
   shares neither the server's runtime lock nor its garbage collector, so
   what serve-30d times is the server.  The report goes back marshalled. *)
type client_report = {
  sends : float array;  (** Per frame: when [send_nowait] was called. *)
  acked : int;
  finish_call : float;  (** End of input: [Client.finish] called. *)
  connect_s : float;  (** TCP connect + handshake. *)
  error : string option;
  spans : Trace.span list;
}

let client_main ~port ~dump ~frames ~frame_records ~traced out =
  Trace.enabled := traced;
  let tr = Trace.track "client" in
  let sends = Array.make (max 1 frames) 0. in
  let sent = ref 0 and acked = ref 0 and finish_call = ref 0. in
  let c0 = now () in
  let connect_s = ref 0. and error = ref None in
  (try
     let client = Client.connect ~port () in
     connect_s := now () -. c0;
     let reader = Mseg.open_file dump in
     let arena = Arena.create ~capacity:frame_records () in
     let unacked = ref 0 in
     let take ack =
       Option.iter (fun (a : Refill_serve.Wire.ack) -> acked := a.records) ack
     in
     let rec loop () =
       let records =
         Trace.with_ tr "ingest" (fun () ->
             Arena.clear arena;
             if Mseg.next_into reader arena ~max_records:frame_records = 0
             then [||]
             else Arena.slice_records (Arena.slice_all arena))
       in
       if Array.length records > 0 then begin
         sends.(!sent) <- now ();
         incr sent;
         Trace.with_ tr "client.send" (fun () ->
             Client.send_nowait client records);
         incr unacked;
         if !unacked >= ack_window then begin
           take
             (Trace.with_ tr "client.ack_wait" (fun () ->
                  Client.drain_acks client));
           unacked := 0
         end;
         loop ()
       end
     in
     loop ();
     finish_call := now ();
     take
       (Some (Trace.with_ tr "client.finish" (fun () -> Client.finish client)))
   with e -> error := Some (Printexc.to_string e));
  let oc = open_out_bin out in
  Marshal.to_channel oc
    {
      sends;
      acked = !acked;
      finish_call = !finish_call;
      connect_s = !connect_s;
      error = !error;
      spans = tr.spans;
    }
    [];
  close_out oc

let serve_pass ~deadline ~frame_records ~stall ~out inp =
  let main_tr = Trace.track "main" and server_tr = Trace.track "server" in
  let rec_ = recorder () in
  let n_frames = max 1 ((inp.records + frame_records - 1) / frame_records) in
  let hooks = Array.make n_frames 0. in
  let n_hooks = ref 0 in
  let on_segment () =
    if !n_hooks < n_frames then hooks.(!n_hooks) <- now ();
    incr n_hooks;
    if stall > 0. then Thread.delay stall
  in
  let sink =
    {
      Emit.write =
        (fun l -> Trace.with_ server_tr "emit" (fun () -> record rec_ l));
      close = ignore;
    }
  in
  let s0 = now () in
  let srv =
    match
      Server.start
        {
          Server.default_config with
          stream = Refill.Config.with_shards serve_shards stream_config;
          sink = inp.sink;
          emit = sink;
          on_segment = Some on_segment;
        }
    with
    | Ok s -> s
    | Error e -> failwith (Refill.Error.message e)
  in
  let start_s = now () -. s0 in
  let stalls0 = counter Refill_serve.Telemetry.backpressure_stalls_total in
  let frames0 = counter Refill_serve.Telemetry.frames_total in
  let errors = ref [] and errors_mu = Mutex.create () in
  let add_error e = Mutex.protect errors_mu (fun () -> errors := e :: !errors) in
  let report_path = Filename.concat out "client.report" in
  if Sys.file_exists report_path then Sys.remove report_path;
  (* The client's stdout is [exit_w], so [exit_r] reads end-of-file the
     moment the client exits; anything it prints there is discarded. *)
  let exit_r, exit_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "client"; "--port"; string_of_int (Server.port srv);
        "--dump"; inp.path; "--frames"; string_of_int n_frames;
        "--frame-records"; string_of_int frame_records;
        "--trace"; (if !Trace.enabled then "1" else "0"); "-o"; report_path;
      |]
      Unix.stdin exit_w Unix.stderr
  in
  Unix.close exit_w;
  (* The watchdog: a pass that outlives its deadline is stopped, and one
     whose server cannot even stop is abandoned with its threads. *)
  let wait_until limit cond =
    while (not (cond ())) && now () < limit do
      Thread.delay 0.01
    done;
    cond ()
  in
  let buf = Bytes.create 4096 in
  let rec client_exited_by limit =
    let left = limit -. now () in
    left > 0.
    &&
    match Unix.select [ exit_r ] [] [] left with
    | [], _, _ -> client_exited_by limit
    | _ -> Unix.read exit_r buf 0 4096 = 0 || client_exited_by limit
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> client_exited_by limit
  in
  if not (client_exited_by (now () +. deadline)) then begin
    add_error (sprintf "watchdog: pass exceeded its %g s deadline" deadline);
    Server.request_stop srv;
    if not (client_exited_by (now () +. 10.)) then Unix.kill pid Sys.sigkill
  end;
  let rec reap () =
    try ignore (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  Unix.close exit_r;
  let report =
    match open_in_bin report_path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> (Marshal.from_channel ic : client_report))
    | exception Sys_error _ ->
        {
          sends = [| 0. |];
          acked = 0;
          finish_call = 0.;
          connect_s = 0.;
          error = Some "client left no report";
          spans = [];
        }
  in
  Option.iter add_error report.error;
  let stop_call = now () in
  let summary = ref None and t1 = ref 0. in
  let stopped = Atomic.make false in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        (try
           summary :=
             Some (Trace.with_ main_tr "serve.stop" (fun () -> Server.stop srv))
         with e -> add_error ("server: " ^ Printexc.to_string e));
        t1 := now ();
        Atomic.set stopped true)
      ()
  in
  let abandoned = not (wait_until (now () +. 10.) (fun () -> Atomic.get stopped)) in
  if abandoned then
    add_error "watchdog: Server.stop did not return; threads abandoned";
  let errors = List.rev !errors in
  let sends = report.sends and acked = report.acked in
  let t0 = sends.(0) in
  let ok = errors = [] in
  let n_hooks = min !n_hooks n_frames in
  let lag =
    if ok then
      Some
        (lags inp rec_ ~seg_records:frame_records ~entry:sends
           ~end_entry:report.finish_call)
    else None
  in
  let layers =
    if not (ok && !Trace.enabled) then []
    else begin
      Trace.import "client" report.spans;
      let queue_p50, queue_p99 =
        ms_quantiles (Array.init n_hooks (fun k -> hooks.(k) -. sends.(k)))
      in
      let f2e =
        lags inp rec_ ~seg_records:frame_records ~entry:hooks
          ~end_entry:stop_call
      in
      let emits =
        List.map
          (fun (s : Trace.span) -> (s.start, s.stop -. s.start))
          server_tr.spans
      in
      let layers = Trace.layers () in
      let s = Option.get !summary in
      [
        ("ingest.s", self_of layers "ingest");
        ( "stream.feed.s",
          serve_feed_estimate ~sends ~hooks ~n:n_hooks ~emits );
        ("stream.evictions", float s.evictions);
        ("stream.peak_frontier_events", float s.peak_frontier_events);
        ("stream.incomplete", float s.incomplete);
        ("client.send.s", self_of layers "client.send");
        ("client.ack_wait.s",
          self_of layers "client.ack_wait" +. self_of layers "client.finish");
        ("serve.queue_wait_ms.p50", queue_p50);
        ("serve.queue_wait_ms.p99", queue_p99);
        ("serve.feed_to_emit_ms.p50", f2e.p50_ms);
        ("serve.feed_to_emit_ms.p99", f2e.p99_ms);
        ("serve.stop.s", self_of layers "serve.stop");
        ( "serve.frames",
          float (counter Refill_serve.Telemetry.frames_total - frames0) );
        ( "serve.backpressure_stalls",
          float
            (counter Refill_serve.Telemetry.backpressure_stalls_total - stalls0)
        );
        ("emit.s", self_of layers "emit");
        ("emit.lines", float rec_.n);
        ("emit.flush_lag_ms.p99", flush_p99_ms (Option.get lag));
        ( "coverage",
          (top_level_time ~track_name:"client" ()
          +. top_level_time ~track_name:"main" ())
          /. (!t1 -. t0) );
      ]
    end
  in
  Printf.printf "  serve: %d of %d records acked, %d lines%s\n%!" acked
    inp.records rec_.n
    (if ok then "" else "; " ^ String.concat "; " errors);
  ( {
      wall = (if ok then !t1 -. t0 else 0.);
      lag;
      serve_setup = start_s +. report.connect_s;
      digest = hex rec_.hash;
      checks = (if ok then [ check_acks ~records:inp.records ~acked ] else []);
      failed = (if ok then 0 else inp.records - acked);
      errors;
      layers;
    },
    abandoned )

(* -- the measured loop --------------------------------------------------------- *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> 0.
      in
      find ())

(* Resetting the high-water mark gives each pass its own peak. *)
let reset_peak () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let pass_json ~index ~traced ~records ~cpu ~rss ~gc_minor ~gc_major p =
  J.Obj
    ([
       ("index", int_num index);
       ("traced", J.Bool traced);
       ("ok", J.Bool (p.errors = []));
       ("wall_s", num p.wall);
       ("cpu_s", num cpu);
       ("records", int_num records);
       ("records_per_s", num (if p.wall > 0. then float records /. p.wall else 0.));
       ("peak_rss_mb", num rss);
       ("serve_setup_s", num p.serve_setup);
       ("digest", J.Str p.digest);
       ("failed", int_num p.failed);
       ("errors", J.Arr (List.map (fun e -> J.Str e) p.errors));
       ("checks", J.Arr (List.map check_json p.checks));
       ( "layers",
         J.Obj
           (List.map
              (fun (k, v) -> (k, num v))
              (if traced then
                 p.layers
                 @ [
                     ( "ingest.records_per_s",
                       match List.assoc_opt "ingest.s" p.layers with
                       | Some s when s > 0. -> float records /. s
                       | _ -> 0. );
                     ("timed.wall_s", p.wall);
                     ("timed.cpu_s", cpu);
                     ("gc.minor_collections", float gc_minor);
                     ("gc.major_words", gc_major);
                   ]
               else [])) );
     ]
    @
    match p.lag with
    | None -> []
    | Some l ->
        [
          ("emit_lag_p50_ms", num l.p50_ms);
          ("emit_lag_p99_ms", num l.p99_ms);
          ("lag_samples", int_num (Array.length l.seconds));
          ("flushed_flows", int_num (Array.length l.flush));
          ("flush_lag_p99_ms", num (flush_p99_ms l));
          ("late_fragments", int_num l.late);
        ])

let print_layers ~workload ~wall =
  Printf.printf "  per-layer self time (%s, traced pass, wall %.3f s):\n"
    workload wall;
  Printf.printf "    %-20s %8s %10s %10s %7s\n" "span" "calls" "total s"
    "self s" "share";
  List.iter
    (fun (name, (l : Trace.layer)) ->
      Printf.printf "    %-20s %8d %10.4f %10.4f %6.1f%%\n" name l.calls l.total
        l.self
        (100. *. l.self /. wall))
    (Trace.layers ())

let run ~workload ~dump ~seconds ~trace ~out ~expect ~deadline
    ~checkpoint_every ~frame_records ~stall =
  let inp = scan dump in
  let ckpt = Filename.concat out "stream.ckpt" in
  (* Lazy set-up finishes before timing.  Left to serve-30d's first pass,
     Protocol's role-id tables are forced by the Stream.Sharded workers at
     once, and the ingest thread can die with CamlinternalLazy.Undefined
     (only Reconstruct.run and run_arena force them up front). *)
  if workload = "serve-30d" then Refill.Protocol.precompute_fsms ();
  let one () =
    match workload with
    | "batch-30d" -> (batch_pass inp, false)
    | "stream-30d" -> (stream_pass ~checkpoint_every ~ckpt inp, false)
    | "serve-30d" -> serve_pass ~deadline ~frame_records ~stall ~out inp
    | w -> failwith (sprintf "unknown workload %S" w)
  in
  let start = now () in
  let passes = ref [] and abandoned = ref false in
  let i = ref 0 in
  (* Another pass starts only if it should end within [seconds], judged by
     the mean pass so far.  Traced runs alternate untraced and traced
     passes, so the overhead ratio compares neighbours. *)
  let fits () =
    let elapsed = now () -. start in
    elapsed +. (elapsed /. float !i) <= seconds
  in
  while
    (not !abandoned) && (!i = 0 || (trace && !i < 2) || fits ())
  do
    let traced = trace && !i mod 2 = 1 in
    Gc.compact ();
    reset_peak ();
    Trace.reset ();
    Trace.enabled := traced;
    let g0 = Gc.quick_stat () and c0 = cpu_seconds () in
    let p, ab = one () in
    let cpu = cpu_seconds () -. c0 and g1 = Gc.quick_stat () in
    Trace.enabled := false;
    abandoned := ab;
    Printf.printf
      "  pass %d%s: %.3f s wall, %.3f s cpu, %.0f records/s, digest %s\n%!" !i
      (if traced then " (traced)" else "")
      p.wall cpu
      (if p.wall > 0. then float inp.records /. p.wall else 0.)
      p.digest;
    if traced && p.errors = [] then begin
      print_layers ~workload ~wall:p.wall;
      Trace.chrome ~origin:start
        (Filename.concat out (sprintf "trace-%s.json" workload))
    end;
    passes :=
      ( p,
        traced,
        pass_json ~index:!i ~traced ~records:inp.records ~cpu
          ~rss:(vm_hwm_mb ())
          ~gc_minor:(g1.minor_collections - g0.minor_collections)
          ~gc_major:(g1.major_words -. g0.major_words)
          p )
      :: !passes;
    incr i
  done;
  let passes = List.rev !passes in
  let good = List.filter (fun (p, _, _) -> p.errors = []) passes in
  (* A per-pass check holds for the run when it holds on every pass. *)
  let per_pass =
    List.fold_left
      (fun acc (c : check) ->
        match List.assoc_opt c.name acc with
        | Some prev when (not prev.ok) || c.ok -> acc
        | _ -> (c.name, c) :: List.remove_assoc c.name acc)
      []
      (List.concat_map (fun (p, _, _) -> p.checks) good)
  in
  let checks =
    List.rev_map snd per_pass
    @ (match good with
      | [] -> []
      | _ -> [ check_agree (List.map (fun (p, _, _) -> p.digest) good) ])
    @
    match (expect, good) with
    | Some d, (p, _, _) :: _ -> [ check_expected ~expect:d p.digest ]
    | _ -> []
  in
  List.iter
    (fun c ->
      Printf.printf "  check %-32s %s  (%s)\n" c.name
        (if c.ok then "ok" else "FAILED")
        c.detail)
    checks;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("records", int_num inp.records);
            ("keys", int_num (Hashtbl.length inp.last));
            ("correct", J.Bool (List.for_all (fun c -> c.ok) checks));
            ("checks", J.Arr (List.map check_json checks));
            ("passes", J.Arr (List.map (fun (_, _, json) -> json) passes));
          ]));
  (* A pass whose server would not stop leaves threads blocked for good;
     end the process without waiting for them. *)
  if !abandoned then begin
    flush_all ();
    Unix._exit 0
  end

(* One untraced single-domain stream pass, no checkpoints: the reference
   digest serve-30d is held to. *)
let reference dump =
  let inp = scan dump in
  let p =
    stream_pass ~checkpoint_every:max_int ~ckpt:Filename.null inp
  in
  print_endline p.digest

(* Each check, fed one input it must pass and one it must reject. *)
let checks_selftest () =
  let cases =
    [
      (check_keys ~flows:10 ~keys:10, check_keys ~flows:10 ~keys:11);
      (check_agree [ "a"; "a" ], check_agree [ "a"; "b" ]);
      ( check_expected ~expect:"0f" "0f",
        check_expected ~expect:"0f" "0e" );
      (check_acks ~records:5 ~acked:5, check_acks ~records:5 ~acked:4);
    ]
  in
  let bad =
    List.filter (fun (good, bad) -> (not good.ok) || bad.ok) cases
  in
  List.iter
    (fun (good, bad) ->
      Printf.printf "%-32s passes good input: %b, rejects bad input: %b\n"
        good.name good.ok (not bad.ok))
    cases;
  if bad <> [] then exit 1

(* -- command line --------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req name =
    match opt name with
    | Some v -> v
    | None -> failwith (sprintf "missing %s" name)
  in
  match List.tl args with
  | "gen" :: _ ->
      gen
        ~scenario_name:(Option.value ~default:"default" (opt "--scenario"))
        ~seed:(int_of_string (req "--seed"))
        ~time_order:(req "--order" = "time")
        (req "-o")
  | "reference" :: _ -> reference (req "--dump")
  | "run" :: _ ->
      run ~workload:(req "--workload") ~dump:(req "--dump")
        ~seconds:(float_of_string (req "--seconds"))
        ~trace:(req "--trace" = "1") ~out:(req "--out") ~expect:(opt "--expect")
        ~deadline:
          (Option.fold ~none:30. ~some:float_of_string (opt "--deadline"))
        ~checkpoint_every:
          (Option.fold ~none:250_000 ~some:int_of_string
             (opt "--checkpoint-every"))
        ~frame_records:
          (Option.fold ~none:default_frame_records ~some:int_of_string
             (opt "--frame-records"))
        ~stall:(Option.fold ~none:0. ~some:float_of_string (opt "--stall"))
  | "client" :: _ ->
      client_main
        ~port:(int_of_string (req "--port"))
        ~dump:(req "--dump")
        ~frames:(int_of_string (req "--frames"))
        ~frame_records:(int_of_string (req "--frame-records"))
        ~traced:(req "--trace" = "1") (req "-o")
  | "checks" :: _ -> checks_selftest ()
  | _ ->
      prerr_endline
        "usage: refill_bench (gen|reference|run|checks) ... — see README.md";
      exit 2
