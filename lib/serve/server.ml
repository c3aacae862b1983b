module Obs = Refill_obs

(* The `refill serve` daemon: a TCP listener feeding one reconstruction
   stream.

   Threading model — one stream, many sockets:

   - one accept thread per listener (wire + optional /metrics HTTP);
   - one thread per wire connection (handshake, frame decode, ack);
   - ONE ingest thread that owns the {!Refill.Stream} and pops the
     shared bounded queue: all feeding, emission, checkpointing, and the final
     finish happen here, so the stream itself never needs a lock and
     global record order is exactly queue order;
   - one timer thread that turns wall-clock into queue [Tick]s (periodic
     checkpoints) and polls the stop flag (OCaml has no timed condition
     wait, and signal handlers must not take locks — {!request_stop} only
     flips an atomic; the timer does the teardown).

   Shutdown (signal or {!stop}) is checkpoint-and-exit: close the
   listener, shut down every live connection socket, then drain — every
   segment already acked is in the queue and is fed before the final
   checkpoint, so an acked record is never lost.  With a checkpoint path
   configured the frontier is left open for a byte-identical resume;
   without one the frontier is flushed ([finish]) so the emit stream
   terminates like an offline run. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (tests). *)
  http_port : int option;  (** [/metrics] endpoint; [Some 0] ephemeral. *)
  checkpoint : string option;
  checkpoint_interval : float;  (** Seconds between periodic checkpoints. *)
  read_timeout : float;
  max_frame : int;
  queue_capacity : int;
  arena_slots : int;
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
    queue_capacity = 64;
    arena_slots = 4;
    stream = Refill.Config.default;
    sink = 0;
    emit = Emit.null;
    on_segment = None;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  lport : int;
  http : Http.t option;
  queue : Ingest.t;
  stop_flag : bool Atomic.t;
  stopping : bool Atomic.t;  (** Teardown already initiated. *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable live_conns : int;
  conns_mu : Mutex.t;
  mutable next_conn_id : int;
  mutable final_summary : Refill.Stream.summary option;
  mutable ingest_error : exn option;
  (* Filled right after construction (the threads need [t]); dummies
     until then. *)
  mutable ingest_thread : Thread.t;
  mutable timer_thread : Thread.t;
  mutable accept_thread : Thread.t;
}

let port t = t.lport
let http_port t = Option.map Http.port t.http

(* -- connection registry ----------------------------------------------------- *)

let conn_register t fd =
  Mutex.protect t.conns_mu (fun () ->
      let id = t.next_conn_id in
      t.next_conn_id <- id + 1;
      Hashtbl.replace t.conns id fd;
      t.live_conns <- t.live_conns + 1;
      id)

let conn_forget t id =
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.remove t.conns id;
      t.live_conns <- t.live_conns - 1);
  (* During shutdown the ingest drain loop may be blocked waiting for
     this connection's last push; wake it so it re-checks liveness.
     (Never posted while running — a Tick there means "checkpoint".) *)
  if Atomic.get t.stopping then Ingest.push_ctrl t.queue Ingest.Tick

let shutdown_conns t =
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        t.conns)

(* -- threads ----------------------------------------------------------------- *)

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if Atomic.get t.stop_flag then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          continue := false
        end
        else begin
          let id = conn_register t fd in
          let (_ : Thread.t) =
            Thread.create
              (fun () ->
                Fun.protect
                  ~finally:(fun () -> conn_forget t id)
                  (fun () ->
                    let (_ : Conn.outcome) =
                      Conn.handle ~id ~fd ~queue:t.queue
                        ~max_frame:t.cfg.max_frame
                        ~read_timeout:t.cfg.read_timeout
                        ~arena_slots:t.cfg.arena_slots
                    in
                    ()))
              ()
          in
          ()
        end
    | exception Unix.Unix_error _ -> continue := false
  done

(* Closing an fd does not wake a thread already blocked in accept(2);
   shutdown usually does on Linux, and the self-connect covers platforms
   where it does not.  The accept loop sees stop_flag set and exits
   either way. *)
let wake_listener t =
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.lport))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ()));
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

(* The timer thread is the only place wall-clock enters the server: it
   converts elapsed time into queue ticks and executes the stop request
   the signal handler could only flag. *)
let timer_loop t =
  let last_tick = ref (Unix.gettimeofday ()) in
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05;
    if Atomic.get t.stop_flag && not (Atomic.exchange t.stopping true) then begin
      wake_listener t;
      shutdown_conns t;
      Ingest.push_ctrl t.queue Ingest.Stop
    end
    else if
      t.cfg.checkpoint <> None
      && Unix.gettimeofday () -. !last_tick >= t.cfg.checkpoint_interval
    then begin
      last_tick := Unix.gettimeofday ();
      Ingest.push_ctrl t.queue Ingest.Tick
    end
  done

let write_checkpoint stream path =
  let t0 = Unix.gettimeofday () in
  (match Refill.Stream.checkpoint_file stream path with
  | Ok () -> Obs.Log.info "serve: checkpoint written to %s" path
  | Error e ->
      Obs.Log.info "serve: checkpoint failed: %s" (Refill.Error.message e));
  Obs.Metrics.Histogram.observe Telemetry.checkpoint_seconds
    (Unix.gettimeofday () -. t0)

let feed_segment t stream (sg : Ingest.segment) =
  Option.iter (fun f -> f ()) t.cfg.on_segment;
  Refill.Stream.feed_arena stream sg.sg_slice;
  sg.sg_consumed ()

let ingest_loop t stream =
  let running = ref true in
  while !running do
    match Ingest.pop t.queue with
    | Ingest.Segment sg -> feed_segment t stream sg
    | Ingest.Tick ->
        Option.iter (fun p -> write_checkpoint stream p) t.cfg.checkpoint
    | Ingest.Stop -> running := false
  done;
  (* Drain: connections may still be completing their final push.  Every
     conn exit posts a Tick, so a blocking pop here always wakes; loop
     until no connection is live and the queue is empty.

     Liveness MUST be read before the queue is checked: a connection only
     leaves the registry after its final push (and ack), so observing
     live = 0 and then an empty queue proves no acked segment is still in
     flight.  The reverse order races — between an empty pop and the
     liveness read, a connection could push its last segment, ack it, and
     exit, and the acked segment would be dropped from the final
     checkpoint. *)
  let drained = ref false in
  while not !drained do
    let live = Mutex.protect t.conns_mu (fun () -> t.live_conns) in
    match Ingest.pop_opt t.queue with
    | Some (Ingest.Segment sg) -> feed_segment t stream sg
    | Some (Ingest.Tick | Ingest.Stop) -> ()
    | None ->
        if live = 0 then drained := true
        else begin
          match Ingest.pop t.queue with
          | Ingest.Segment sg -> feed_segment t stream sg
          | Ingest.Tick | Ingest.Stop -> ()
        end
  done;
  match t.cfg.checkpoint with
  | Some path ->
      write_checkpoint stream path;
      t.final_summary <- Some (Refill.Stream.summary stream)
  | None -> t.final_summary <- Some (Refill.Stream.finish stream)

(* -- lifecycle ---------------------------------------------------------------- *)

let listen_on port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    in
    (fd, bound)
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let start cfg =
  (* A peer vanishing mid-write — a feeder gone before its ack, an emit
     subscriber that hung up, a curl that abandoned /metrics, or our own
     shutdown_conns racing a conn thread's last ack — must surface as
     EPIPE on that write (handled per connection / per subscriber), not
     as a SIGPIPE that kills the whole daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let emit e = Emit.emit_to cfg.emit e in
  let stream_r =
    match cfg.checkpoint with
    | Some path when Sys.file_exists path ->
        Result.map
          (fun st ->
            Obs.Log.info "serve: resumed from %s at record %d" path
              (Refill.Stream.processed st);
            st)
          (Refill.Stream.resume_file ~config:cfg.stream path ~sink:cfg.sink
             ~emit)
    | _ -> Ok (Refill.Stream.create ~config:cfg.stream ~sink:cfg.sink ~emit ())
  in
  match stream_r with
  | Error e -> Error e
  | Ok stream -> (
      match listen_on cfg.port with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Refill.Error.Io
               {
                 path = Printf.sprintf "tcp://127.0.0.1:%d" cfg.port;
                 message = Unix.error_message e;
               })
      | listen_fd, lport -> (
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
                    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
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
          let queue = Ingest.create ~capacity:cfg.queue_capacity in
          let t =
            {
              cfg;
              listen_fd;
              lport;
              http;
              queue;
              stop_flag = Atomic.make false;
              stopping = Atomic.make false;
              conns = Hashtbl.create 16;
              live_conns = 0;
              conns_mu = Mutex.create ();
              next_conn_id = 0;
              final_summary = None;
              ingest_error = None;
              ingest_thread = Thread.self ();
              timer_thread = Thread.self ();
              accept_thread = Thread.self ();
            }
          in
          t.ingest_thread <-
            Thread.create
              (fun () ->
                try ingest_loop t stream
                with e ->
                  t.ingest_error <- Some e;
                  (* Let the timer tear down the listener and sockets so
                     [wait] can join the other threads and re-raise. *)
                  Atomic.set t.stop_flag true)
              ();
          t.timer_thread <- Thread.create (fun () -> timer_loop t) ();
          t.accept_thread <- Thread.create (fun () -> accept_loop t) ();
          let shards = Refill.Stream.shards stream in
          Obs.Log.info "serve: listening on 127.0.0.1:%d (%d shard%s)" lport
            shards
            (if shards = 1 then "" else "s");
          Ok t))

let request_stop t = Atomic.set t.stop_flag true

let wait t =
  Thread.join t.ingest_thread;
  Thread.join t.timer_thread;
  Thread.join t.accept_thread;
  Option.iter Http.stop t.http;
  t.cfg.emit.Emit.close ();
  match (t.ingest_error, t.final_summary) with
  | Some e, _ -> raise e
  | None, Some s -> s
  | None, None -> assert false

let stop t =
  request_stop t;
  wait t
