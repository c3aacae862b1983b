(* One nonblocking socket of the serve loop: the bytes read and not yet
   consumed, the bytes still to write, a deadline, and for a wire
   connection the state machine Handshaking → Streaming → Closed/Rejected.
   [step] feeds each complete frame and acks it right after the feed
   returns; while an ack waits for the socket, nothing more is consumed
   or read, so the peer's sends back up over TCP.  Violations and socket
   failures raise, and the loop closes only this connection; a stream
   failure makes [feed] return [false], and the frame goes unacked. *)

type t = {
  id : int;
  fd : Unix.file_descr;
  wire : bool;  (** [false]: an HTTP request or an emit subscriber. *)
  mutable inb : Bytes.t;  (** Read, not yet consumed: [inb.[0, ilen)]. *)
  mutable ilen : int;
  mutable out : Bytes.t;  (** Still to write: [out.[ooff, length)]. *)
  mutable ooff : int;
  mutable deadline : float;
  mutable streaming : bool;
  mutable frames : int;  (** Data frames acked so far, and their records. *)
  mutable records : int;
  mutable eof : bool;
  mutable closing : bool;  (** Done: close once [out] drains. *)
}

let create ~id ~wire fd ~deadline =
  Unix.set_nonblock fd;
  if wire then begin
    (* Acks are tiny; without NODELAY each one waits out the peer's
       delayed-ACK timer and lockstep clients crawl. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Telemetry.enter_handshaking ()
  end;
  let inb = Bytes.create (if wire then 16_384 else 1_100) in
  { id; fd; wire; inb; ilen = 0; out = Bytes.empty; ooff = 0; deadline;
    streaming = false; frames = 0; records = 0; eof = false; closing = false }

let pending_out c = Bytes.length c.out - c.ooff
let wants_read c = (not (c.closing || c.eof)) && pending_out c = 0
let wants_write c = pending_out c > 0
let finished c = c.closing && pending_out c = 0

let retry = function
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true | _ -> false

(* What the socket holds, up to the buffer's free space (never zero: a
   frame grows the buffer to fit before it is awaited). *)
let read c ~deadline =
  match Unix.read c.fd c.inb c.ilen (Bytes.length c.inb - c.ilen) with
  | 0 -> c.eof <- true
  | n ->
      c.ilen <- c.ilen + n;
      c.deadline <- deadline
  | exception e when retry e -> ()

let rec flush c ~deadline =
  if pending_out c > 0 then
    match Unix.single_write c.fd c.out c.ooff (pending_out c) with
    | n ->
        c.ooff <- c.ooff + n;
        c.deadline <- deadline;
        flush c ~deadline
    | exception e when retry e -> ()

let send c b ~deadline =
  c.out <-
    (if pending_out c = 0 then b
     else Bytes.cat (Bytes.sub c.out c.ooff (pending_out c)) b);
  c.ooff <- 0;
  flush c ~deadline

(* -- the wire state machine ----------------------------------------------- *)

let ack c ~deadline =
  send c (Wire.ack_frame { Wire.frames = c.frames; records = c.records })
    ~deadline

let greeting c ~max_frame ~deadline =
  match Bytes.index_opt (Bytes.sub c.inb 0 c.ilen) '\n' with
  | None ->
      if c.ilen > String.length Wire.magic then
        Wire.proto_fail "greeting line too long"
  | Some i ->
      let line = Bytes.sub_string c.inb 0 i in
      if line <> Wire.magic then
        Wire.proto_fail "bad magic %S (want %S)" line Wire.magic;
      Bytes.blit c.inb (i + 1) c.inb 0 (c.ilen - i - 1);
      c.ilen <- c.ilen - i - 1;
      c.streaming <- true;
      Telemetry.handshake_ok ();
      send c (Bytes.of_string (Wire.server_greeting ~max_frame)) ~deadline

let step c ~max_frame ~arena ~feed ~deadline =
  if not c.streaming then greeting c ~max_frame ~deadline;
  let pos = ref 0 in
  let rec frames () =
    let avail = c.ilen - !pos in
    if c.streaming && (not c.closing) && pending_out c = 0
       && avail >= Wire.header_size
    then begin
      let len = Wire.frame_length c.inb !pos ~max_payload:max_frame in
      let typ = Bytes.get c.inb (!pos + 4) in
      if typ <> Wire.frame_data && typ <> Wire.frame_end then
        Wire.proto_fail "unexpected frame type %C" typ;
      let size = Wire.header_size + len in
      if avail >= size then begin
        let off = !pos + Wire.header_size in
        pos := !pos + size;
        if typ = Wire.frame_end then begin
          c.closing <- true;
          ack c ~deadline
        end
        else begin
          Logsys.Arena.clear arena;
          let n =
            try Logsys.Arena.decode_segment_into arena ~off ~len c.inb
            with Failure m -> Wire.proto_fail "undecodable segment: %s" m
          in
          if feed (Logsys.Arena.slice_all arena) then begin
            c.frames <- c.frames + 1;
            c.records <- c.records + n;
            Refill_obs.Metrics.Counter.inc Telemetry.frames_total;
            Refill_obs.Metrics.Counter.add Telemetry.records_total n;
            Refill_obs.Metrics.Counter.add Telemetry.bytes_total len;
            ack c ~deadline
          end
          else c.closing <- true
        end;
        frames ()
      end
      else if size > Bytes.length c.inb then begin
        (* Make room for the whole frame, so the next read can finish it. *)
        let cap = min (2 * Bytes.length c.inb) (Wire.header_size + max_frame) in
        let inb = Bytes.create (max size cap) in
        Bytes.blit c.inb !pos inb 0 avail;
        c.inb <- inb;
        c.ilen <- avail;
        pos := 0
      end
    end
  in
  frames ();
  if !pos > 0 then begin
    Bytes.blit c.inb !pos c.inb 0 (c.ilen - !pos);
    c.ilen <- c.ilen - !pos
  end

let close c ~reason =
  (match reason with
  | Some r when c.wire ->
      Refill_obs.Log.info "serve: conn %d rejected: %s" c.id r
  | _ -> ());
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  if c.wire then
    Telemetry.finish ~rejected:(Option.is_some reason)
      ~was_streaming:c.streaming

let reason = function
  | Wire.Protocol_error m -> m
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | e -> Printexc.to_string e
