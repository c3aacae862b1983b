module Obs = Refill_obs

(* The `refill serve` daemon: one loop thread over [Unix.select] owns the
   wire listener, the /metrics listener and every connection ({!Conn}).
   Each iteration accepts, writes pending output, reads what the ready
   sockets hold, and consumes the buffers connection by connection, each
   complete frame decoded, fed and acked before the next.  So record
   order is the loop's order, an ack means "fed", and only the loop
   touches the stream; while a feed runs no socket is read, and TCP
   carries the backpressure.  Only the stream's shard workers run on
   other domains.

   The select timeout is the tick: the loop then checks deadlines, takes
   a periodic checkpoint when one is due, and polls the stop flag
   ({!request_stop} only flips an atomic, so a signal handler may call
   it).  A descriptor select cannot watch (at or above FD_SETSIZE) is
   refused; when accept runs out of descriptors, the listeners rest until
   a connection closes or the next tick.

   Shutdown (signal, {!stop} or a stream failure) is checkpoint-and-exit:
   the loop closes the listeners and every connection and returns, and
   the stream holds every acked record.  With a checkpoint path the
   frontier is left open for a byte-identical resume; without one it is
   flushed ([finish]) so the emit stream ends like an offline run. *)

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
  failure : exn option Atomic.t;  (** The first stream failure. *)
  listener : Wire.listener;
  http : Wire.listener option;
  stop_flag : bool Atomic.t;
  mutable loop : Thread.t;  (** Set right after construction. *)
}

let port t = t.listener.Wire.port
let http_port t = Option.map (fun (l : Wire.listener) -> l.port) t.http
let request_stop t = Atomic.set t.stop_flag true
let tick = 0.05

(* HTTP requests get as long as a scraper should ever need. *)
let http_timeout = 5.0

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

(* [true] once the slice is in the stream (the connection may ack it),
   [false] when the stream has failed (it must not). *)
let feed t slice =
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

(* The loop has returned: the stream holds every acked record. *)
let close_stream t =
  match t.cfg.checkpoint with
  | Some path ->
      write_checkpoint t path;
      Refill.Stream.summary t.stream
  | None -> Refill.Stream.finish t.stream

(* -- the loop ----------------------------------------------------------------- *)

(* [Unix.select] refuses (EINVAL) a descriptor at or above FD_SETSIZE;
   any error but EINTR refuses this descriptor alone. *)
let rec selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> selectable fd
  | exception Unix.Unix_error _ -> false

let rec select r w =
  try Unix.select r w [] tick
  with Unix.Unix_error (Unix.EINTR, _, _) -> select r w

(* The state only the loop thread touches. *)
type loop = {
  arena : Logsys.Arena.t;
  mutable conns : Conn.t list;
  mutable next_id : int;
  mutable resting_until : float;  (** Listeners rest after EMFILE. *)
  mutable fed_by : int;  (** The first connection fed this iteration. *)
}

let deadline t ~wire now =
  let timeout = if wire then t.cfg.read_timeout else http_timeout in
  if timeout > 0.0 then now +. timeout else infinity

let close lp (c : Conn.t) ~reason =
  Conn.close c ~reason;
  lp.conns <- List.filter (fun (d : Conn.t) -> d != c) lp.conns;
  lp.resting_until <- 0.0

(* A wire peer learns why from the greeting it gets instead of [ok]. *)
let refuse ~wire fd =
  if wire then begin
    Obs.Metrics.Gauge.add Telemetry.conns_rejected 1.0;
    Obs.Log.info "serve: refused a connection: select cannot watch it";
    try ignore (Unix.write_substring fd Wire.refusal 0 (String.length Wire.refusal))
    with Unix.Unix_error _ -> ()
  end;
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_all t lp ~wire (l : Wire.listener) now =
  match Unix.accept ~cloexec:true l.fd with
  | fd, _ ->
      if selectable fd then begin
        let id = lp.next_id in
        lp.next_id <- id + 1;
        let c = Conn.create ~id ~wire fd ~deadline:(deadline t ~wire now) in
        lp.conns <- lp.conns @ [ c ]
      end
      else refuse ~wire fd;
      accept_all t lp ~wire l now
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      Obs.Log.info "serve: out of descriptors; accepting again later";
      lp.resting_until <- now +. tick
  | exception Unix.Unix_error _ -> ()

(* Consume one connection's input.  A frame fed after another
   connection's in the same iteration waited for it in its buffer: a
   backpressure stall. *)
let step t lp routes (c : Conn.t) ~deadline =
  if c.wire then
    let feed slice =
      if lp.fed_by < 0 then lp.fed_by <- c.id
      else if lp.fed_by <> c.id then
        Obs.Metrics.Counter.inc Telemetry.backpressure_stalls_total;
      feed t slice
    in
    Conn.step c ~max_frame:t.cfg.max_frame ~arena:lp.arena ~feed ~deadline
  else if not c.closing then
    match Http.request_line c.inb c.ilen ~eof:c.eof with
    | Some line ->
        Conn.send c (Bytes.of_string (Http.respond ~routes line)) ~deadline;
        c.closing <- true
    | None -> ()

let iteration t lp routes =
  let now = Unix.gettimeofday () in
  let listeners =
    if now < lp.resting_until then []
    else
      (true, t.listener)
      :: Option.fold ~none:[] ~some:(fun l -> [ (false, l) ]) t.http
  in
  let fds f =
    List.filter_map (fun (c : Conn.t) -> if f c then Some c.fd else None)
  in
  let r, w, _ =
    select
      (List.map (fun (_, (l : Wire.listener)) -> l.fd) listeners
      @ fds Conn.wants_read lp.conns)
      (fds Conn.wants_write lp.conns)
  in
  let now = Unix.gettimeofday () in
  List.iter
    (fun (wire, (l : Wire.listener)) ->
      if List.mem l.fd r then accept_all t lp ~wire l now)
    listeners;
  lp.fed_by <- -1;
  List.iter
    (fun (c : Conn.t) ->
      let dl = deadline t ~wire:c.wire now in
      match
        if List.mem c.fd w then Conn.flush c ~deadline:dl;
        if List.mem c.fd r then Conn.read c ~deadline:dl;
        step t lp routes c ~deadline:dl
      with
      | () ->
          if Conn.finished c then close lp c ~reason:None
          else if c.eof && c.wire && not c.closing then
            close lp c ~reason:(Some "unexpected EOF")
          else if now > c.deadline then
            close lp c ~reason:(Some "read timeout")
      | exception e -> close lp c ~reason:(Some (Conn.reason e)))
    lp.conns

let run t =
  let arena = Logsys.Arena.create () in
  let lp = { arena; conns = []; next_id = 0; resting_until = 0.0; fed_by = -1 } in
  let routes = Http.metrics_routes () in
  let last_checkpoint = ref (Unix.gettimeofday ()) in
  (try
     while not (Atomic.get t.stop_flag) do
       iteration t lp routes;
       match t.cfg.checkpoint with
       | Some path
         when Unix.gettimeofday () -. !last_checkpoint
              >= t.cfg.checkpoint_interval ->
           last_checkpoint := Unix.gettimeofday ();
           if Option.is_none (Atomic.get t.failure) then (
             try write_checkpoint t path with e -> fail t e)
       | _ -> ()
     done
   with e -> fail t e);
  Wire.close_listener t.listener;
  Option.iter Wire.close_listener t.http;
  List.iter (fun c -> Conn.close c ~reason:None) lp.conns

(* -- lifecycle ---------------------------------------------------------------- *)

let listen ~scheme port =
  let path = Printf.sprintf "%s://127.0.0.1:%d" scheme port in
  let io e = Error (Refill.Error.Io { path; message = Unix.error_message e }) in
  match Wire.listen_on port with
  | exception Unix.Unix_error (e, _, _) -> io e
  | l when selectable l.fd -> Ok l
  | l ->
      Wire.close_listener l;
      io Unix.EMFILE

let ( let* ) = Result.bind

let start cfg =
  (* A peer vanishing mid-write — a feeder gone before its ack, an emit
     subscriber that hung up, a curl that abandoned /metrics — must
     surface as EPIPE on that write, not as a SIGPIPE that kills the
     whole daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let emit e = Emit.emit_to cfg.emit e in
  let* stream =
    (* Every client would refuse a greeting whose max-frame is not
       positive. *)
    if cfg.max_frame <= 0 then
      Error
        (Refill.Error.Invalid_config
           (Printf.sprintf "max-frame must be positive, got %d" cfg.max_frame))
    else
      match cfg.checkpoint with
      | Some path when Sys.file_exists path ->
          let* st =
            Refill.Stream.resume_file ~config:cfg.stream path ~sink:cfg.sink
              ~emit
          in
          Obs.Log.info "serve: resumed from %s at record %d" path
            (Refill.Stream.processed st);
          Ok st
      | _ ->
          Ok (Refill.Stream.create ~config:cfg.stream ~sink:cfg.sink ~emit ())
  in
  let* listener = listen ~scheme:"tcp" cfg.port in
  (* A busy --http-port fails like a busy wire port, the wire listener
     closed again. *)
  let* http =
    match cfg.http_port with
    | None -> Ok None
    | Some p ->
        Result.map_error
          (fun e ->
            Wire.close_listener listener;
            e)
          (Result.map Option.some (listen ~scheme:"http" p))
  in
  let failure = Atomic.make None and stop_flag = Atomic.make false in
  let t =
    { cfg; stream; failure; listener; http; stop_flag; loop = Thread.self () }
  in
  t.loop <- Thread.create run t;
  let shards = Refill.Stream.shards stream in
  Obs.Log.info "serve: listening on 127.0.0.1:%d (%d shard%s)" (port t) shards
    (if shards = 1 then "" else "s");
  Ok t

let wait t =
  Thread.join t.loop;
  let final =
    match Atomic.get t.failure with
    | Some e -> Error e
    | None -> ( try Ok (close_stream t) with e -> Error e)
  in
  t.cfg.emit.Emit.close ();
  match final with Ok s -> s | Error e -> raise e

let stop t =
  request_stop t;
  wait t
