module Obs = Refill_obs

(* One ingesting connection: Handshaking → Streaming → Closed/Rejected.

   The connection thread owns the socket and one reusable arena.  Each
   data frame is decoded straight into the arena
   ([Arena.decode_segment_into] — no per-record allocation), handed to
   [feed], and acked only after [feed] returns, so an ack means the
   records are in the stream.  The next frame is not read before that:
   while the stream is busy the socket is not read, and TCP carries the
   backpressure to the sender.

   Failure containment: every protocol violation (bad magic, unknown
   frame type, oversized length, a payload [Codec] cannot decode) and
   every socket-level failure (EOF mid-frame, receive timeout) terminates
   *this* connection — logged, counted, fd closed — and nothing else.  A
   stream failure never reaches this module as an exception: [feed]
   reports it by returning [false], and the connection closes without
   acking the frame. *)

let reject_reason = function
  | Wire.Protocol_error m -> Some m
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Some "read timeout"
  | Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  | Failure m -> Some ("undecodable segment: " ^ m)
  | _ -> None

let streaming_loop ~fd ~feed ~max_frame =
  let arena = Logsys.Arena.create () in
  let frames = ref 0 in
  let records = ref 0 in
  let rec loop () =
    let typ, payload = Wire.read_frame fd ~max_payload:max_frame in
    if typ = Wire.frame_end then
      Wire.write_ack fd { Wire.frames = !frames; records = !records }
    else if typ = Wire.frame_data then begin
      Logsys.Arena.clear arena;
      let n = Logsys.Arena.decode_segment_into arena payload in
      if feed (Logsys.Arena.slice_all arena) then begin
        incr frames;
        records := !records + n;
        Obs.Metrics.Counter.inc Telemetry.frames_total;
        Obs.Metrics.Counter.add Telemetry.records_total n;
        Obs.Metrics.Counter.add Telemetry.bytes_total (Bytes.length payload);
        Wire.write_ack fd { Wire.frames = !frames; records = !records };
        loop ()
      end
    end
    else Wire.proto_fail "unexpected frame type %C" typ
  in
  loop ()

let handle ~id ~fd ~feed ~max_frame ~read_timeout =
  Telemetry.enter_handshaking ();
  let streaming = ref false in
  let rejected =
    match
      (* Acks are tiny; without NODELAY each one waits out the peer's
         delayed-ACK timer and lockstep clients crawl. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      if read_timeout > 0.0 then
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout;
      Wire.expect_client_greeting fd;
      Wire.send_server_greeting fd ~max_frame;
      Telemetry.handshake_ok ();
      streaming := true;
      streaming_loop ~fd ~feed ~max_frame
    with
    | () -> false
    | exception e -> (
        match reject_reason e with
        | Some reason ->
            Obs.Log.info "serve: conn %d rejected: %s" id reason;
            true
        | None -> raise e)
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Telemetry.finish ~rejected ~was_streaming:!streaming
