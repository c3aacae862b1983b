module Obs = Refill_obs

(* The `refill serve` daemon: a TCP listener feeding one reconstruction
   stream.

   Threading model — one stream, one lock, many sockets:

   - one accept thread per listener (wire + optional /metrics HTTP);
   - one thread per wire connection: handshake, then per data frame
     decode, feed, ack.  Every call into the {!Refill.Stream} holds
     [stream_mu], so global record order is the order in which feeds take
     the lock, and an ack means the records were fed;
   - one timer thread that takes the same lock for periodic checkpoints
     and polls the stop flag (OCaml has no timed condition wait, and
     signal handlers must not take locks — {!request_stop} only flips an
     atomic; the timer does the teardown).

   Every server thread is a systhread of one domain, so a hand-off to a
   dedicated stream thread would buy no parallelism; only the stream's
   shard workers run on other domains.

   Shutdown (signal, {!stop} or a stream failure) is checkpoint-and-exit:
   close the listener, shut down every live connection socket, and once
   the last connection thread has left the registry nothing can feed any
   more — every acked record is already in the stream.  With a checkpoint
   path configured the frontier is left open for a byte-identical resume;
   without one the frontier is flushed ([finish]) so the emit stream
   terminates like an offline run.  [stream_mu] and [conns_mu] are never
   held together. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (tests). *)
  http_port : int option;  (** [/metrics] endpoint; [Some 0] ephemeral. *)
  checkpoint : string option;
  checkpoint_interval : float;  (** Seconds between periodic checkpoints. *)
  read_timeout : float;
  max_frame : int;
  stream : Refill.Config.t;
  sink : int;
  emit : Emit.sink;
  on_segment : (unit -> unit) option;
}

let default_config =
  {
    port = 0;
    http_port = None;
    checkpoint = None;
    checkpoint_interval = 30.0;
    read_timeout = 30.0;
    max_frame = Wire.default_max_frame;
    stream = Refill.Config.default;
    sink = 0;
    emit = Emit.null;
    on_segment = None;
  }

type t = {
  cfg : config;
  stream : Refill.Stream.t;
  stream_mu : Mutex.t;
  failure : exn option Atomic.t;  (** The first stream failure. *)
  listener : Wire.listener;
  http : Http.t option;
  stop_flag : bool Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  conns_mu : Mutex.t;
  conns_gone : Condition.t;  (** Signalled when [conns] becomes empty. *)
  mutable next_conn_id : int;
  mutable timer_thread : Thread.t;
      (** Set right after construction (the thread needs [t]). *)
}

let port t = Wire.listener_port t.listener
let http_port t = Option.map Http.port t.http
let request_stop t = Atomic.set t.stop_flag true

(* -- the stream -------------------------------------------------------------- *)

(* A stream failure (from [feed_arena], a worker or [emit]) is the
   server's failure: kept once, and it stops the server.  [wait]
   re-raises it after teardown. *)
let fail t e =
  if Atomic.compare_and_set t.failure None (Some e) then
    Obs.Log.info "serve: stream failed, stopping: %s" (Printexc.to_string e);
  request_stop t

let write_checkpoint t path =
  let t0 = Unix.gettimeofday () in
  (match Refill.Stream.checkpoint_file t.stream path with
  | Ok () -> Obs.Log.info "serve: checkpoint written to %s" path
  | Error e ->
      Obs.Log.info "serve: checkpoint failed: %s" (Refill.Error.message e));
  Obs.Metrics.Histogram.observe Telemetry.checkpoint_seconds
    (Unix.gettimeofday () -. t0)

(* A connection's feed: [true] once the slice is in the stream (the
   connection may ack it), [false] when the stream has failed (it must
   not).  Finding the lock held — by another connection's feed or a
   checkpoint — is a backpressure stall: this connection's socket goes
   unread until the stream is free. *)
let feed t slice =
  if not (Mutex.try_lock t.stream_mu) then begin
    Obs.Metrics.Counter.inc Telemetry.backpressure_stalls_total;
    Mutex.lock t.stream_mu
  end;
  let fed =
    Option.is_none (Atomic.get t.failure)
    &&
    match
      Option.iter (fun f -> f ()) t.cfg.on_segment;
      Refill.Stream.feed_arena t.stream slice
    with
    | () -> true
    | exception e ->
        fail t e;
        false
  in
  Mutex.unlock t.stream_mu;
  fed

(* No connection is left to feed: the stream holds every acked record. *)
let close_stream t =
  match t.cfg.checkpoint with
  | Some path ->
      write_checkpoint t path;
      Refill.Stream.summary t.stream
  | None -> Refill.Stream.finish t.stream

(* -- connection registry ----------------------------------------------------- *)

(* Registration and [shutdown_conns] both hold [conns_mu] and the stop
   flag is set before teardown starts, so a connection accepted during
   shutdown is either refused here or shut down there. *)
let conn_register t fd =
  Mutex.protect t.conns_mu (fun () ->
      if Atomic.get t.stop_flag then None
      else begin
        let id = t.next_conn_id in
        t.next_conn_id <- id + 1;
        Hashtbl.replace t.conns id fd;
        Some id
      end)

let conn_forget t id =
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.remove t.conns id;
      if Hashtbl.length t.conns = 0 then Condition.broadcast t.conns_gone)

let shutdown_conns t =
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        t.conns)

(* -- threads ----------------------------------------------------------------- *)

let on_accept t fd =
  match conn_register t fd with
  | None -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Some id ->
      let (_ : Thread.t) =
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> conn_forget t id)
              (fun () ->
                Conn.handle ~id ~fd ~feed:(feed t) ~max_frame:t.cfg.max_frame
                  ~read_timeout:t.cfg.read_timeout))
          ()
      in
      ()

(* The timer thread is the only place wall-clock enters the server: it
   takes periodic checkpoints and executes the stop request the signal
   handler could only flag. *)
let timer_loop t =
  let last_tick = ref (Unix.gettimeofday ()) in
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.05;
    match t.cfg.checkpoint with
    | Some path
      when Unix.gettimeofday () -. !last_tick >= t.cfg.checkpoint_interval ->
        last_tick := Unix.gettimeofday ();
        Mutex.protect t.stream_mu (fun () ->
            if Option.is_none (Atomic.get t.failure) then
              try write_checkpoint t path with e -> fail t e)
    | _ -> ()
  done;
  Wire.close_listener t.listener;
  shutdown_conns t

(* -- lifecycle ---------------------------------------------------------------- *)

let start cfg =
  (* A peer vanishing mid-write — a feeder gone before its ack, an emit
     subscriber that hung up, a curl that abandoned /metrics, or our own
     shutdown_conns racing a conn thread's last ack — must surface as
     EPIPE on that write (handled per connection / per subscriber), not
     as a SIGPIPE that kills the whole daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let emit e = Emit.emit_to cfg.emit e in
  let stream_r =
    (* Every client would refuse a greeting whose max-frame is not
       positive. *)
    if cfg.max_frame <= 0 then
      Error
        (Refill.Error.Invalid_config
           (Printf.sprintf "max-frame must be positive, got %d" cfg.max_frame))
    else
      match cfg.checkpoint with
      | Some path when Sys.file_exists path ->
          Result.map
            (fun st ->
              Obs.Log.info "serve: resumed from %s at record %d" path
                (Refill.Stream.processed st);
              st)
            (Refill.Stream.resume_file ~config:cfg.stream path ~sink:cfg.sink
               ~emit)
      | _ ->
          Ok (Refill.Stream.create ~config:cfg.stream ~sink:cfg.sink ~emit ())
  in
  match stream_r with
  | Error e -> Error e
  | Ok stream -> (
      match Wire.listen_on cfg.port with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Refill.Error.Io
               {
                 path = Printf.sprintf "tcp://127.0.0.1:%d" cfg.port;
                 message = Unix.error_message e;
               })
      | listener -> (
          (* A busy --http-port must fail like a busy wire port: an
             [Error], with the already-bound wire listener closed, not an
             exception leaking the fd. *)
          let http_r =
            match cfg.http_port with
            | None -> Ok None
            | Some p -> (
                match Http.start ~port:p ~routes:(Http.metrics_routes ()) with
                | h -> Ok (Some h)
                | exception Unix.Unix_error (e, _, _) ->
                    Wire.close_listener listener;
                    Error
                      (Refill.Error.Io
                         {
                           path = Printf.sprintf "http://127.0.0.1:%d" p;
                           message = Unix.error_message e;
                         }))
          in
          match http_r with
          | Error e -> Error e
          | Ok http ->
          let t =
            {
              cfg;
              stream;
              stream_mu = Mutex.create ();
              failure = Atomic.make None;
              listener;
              http;
              stop_flag = Atomic.make false;
              conns = Hashtbl.create 16;
              conns_mu = Mutex.create ();
              conns_gone = Condition.create ();
              next_conn_id = 0;
              timer_thread = Thread.self ();
            }
          in
          (* The accept thread first: the timer's teardown joins it. *)
          Wire.accept_in_thread listener (on_accept t);
          t.timer_thread <- Thread.create (fun () -> timer_loop t) ();
          let shards = Refill.Stream.shards stream in
          Obs.Log.info "serve: listening on 127.0.0.1:%d (%d shard%s)"
            (port t) shards
            (if shards = 1 then "" else "s");
          Ok t))

let wait t =
  (* The timer thread exits after the teardown, which joins the accept
     thread. *)
  Thread.join t.timer_thread;
  Mutex.protect t.conns_mu (fun () ->
      while Hashtbl.length t.conns > 0 do
        Condition.wait t.conns_gone t.conns_mu
      done);
  Option.iter Http.stop t.http;
  let final =
    match Atomic.get t.failure with
    | Some e -> Error e
    | None -> (
        try Ok (Mutex.protect t.stream_mu (fun () -> close_stream t))
        with e -> Error e)
  in
  t.cfg.emit.Emit.close ();
  match final with Ok s -> s | Error e -> raise e

let stop t =
  request_stop t;
  wait t
