(* Flow-outcome emission: one stable text line per emitted flow, and the
   sinks that carry those lines (a file, or a publish socket that streams
   them to any number of subscribers).

   The line format deliberately contains no wall-clock material — only
   the outcome, the packet key, the classified cause, and the flow's own
   event rendering — so the byte stream produced by a live `refill
   serve` is comparable (diff-able) with an offline
   `reconstruct --stream --emit-file` over the same record sequence. *)

let outcome_char = function
  | Refill.Stream.Complete -> 'C'
  | Refill.Stream.Incomplete -> 'I'

let line (e : Refill.Stream.emitted) =
  let f = e.flow in
  let b = Buffer.create (32 + (24 * Refill.Flow.length f)) in
  Buffer.add_char b (outcome_char e.outcome);
  Prelude.Decimal.add_field b f.origin;
  Prelude.Decimal.add_field b f.seq;
  Buffer.add_char b ' ';
  Buffer.add_string b (Logsys.Cause.name e.cause);
  Buffer.add_string b " | ";
  Refill.Flow.add_to_buffer b f;
  Buffer.contents b

(* Provenance side-car: the packed ints, space-separated, in item order.
   Raw ints rather than the pretty rendering keep the line cheap and
   exactly invertible (Provenance.t is an immediate int). *)
let prov_line (f : Refill.Flow.t) =
  if Array.length f.prov = 0 then None
  else begin
    let b = Buffer.create (8 * Array.length f.prov) in
    Buffer.add_char b 'p';
    Array.iter
      (fun pv -> Prelude.Decimal.add_field b (pv : Refill.Provenance.t :> int))
      f.prov;
    Some (Buffer.contents b)
  end

type sink = { write : string -> unit; close : unit -> unit }

let null = { write = ignore; close = ignore }

let to_file path =
  let oc = open_out path in
  {
    write =
      (fun l ->
        output_string oc l;
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

(* -- publish socket ---------------------------------------------------------

   A listener on [port]; every connected subscriber receives each line as
   it is written.  Subscribers are best-effort: a hard write failure
   (closed peer) drops that subscriber without disturbing the others or
   the server.  A subscriber whose socket buffer is momentarily full is
   NOT dropped — the undelivered tail is kept in a bounded per-subscriber
   backlog and retried on the next write, so delivered lines are never
   torn.  Only a peer that stays stalled past [max_backlog] bytes is
   dropped (its stream ends mid-line at the close, which is the only
   option short of unbounded buffering).  Lines written while nobody is
   connected are dropped — this is a tap, not a queue; durable capture is
   [to_file]. *)

let max_backlog = 1 lsl 18

type subscriber = {
  sfd : Unix.file_descr;
  mutable pending : Bytes.t;  (** Accepted but not yet written bytes. *)
  mutable off : int;  (** Next byte of [pending] to write. *)
}

type publisher = {
  mutable subs : subscriber list;
  mutable stopped : bool;
  mu : Mutex.t;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let subscribe p fd =
  locked p.mu (fun () ->
      if p.stopped then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        (* Non-blocking so a stalled subscriber surfaces as EAGAIN on
           write (and is buffered, then dropped if it stays stalled)
           instead of wedging emission. *)
        Unix.set_nonblock fd;
        p.subs <- { sfd = fd; pending = Bytes.create 0; off = 0 } :: p.subs
      end)

(* Queue [payload] behind whatever is still undelivered, then push as
   much as the socket accepts.  Returns [false] (subscriber must be
   dropped, fd closed) on a hard write error or a backlog past
   [max_backlog]; EAGAIN with a tolerable backlog keeps the subscriber
   and the tail. *)
let subscriber_write s payload =
  let backlog = Bytes.length s.pending - s.off in
  if backlog = 0 then begin
    s.pending <- payload;
    s.off <- 0
  end
  else begin
    let merged = Bytes.create (backlog + Bytes.length payload) in
    Bytes.blit s.pending s.off merged 0 backlog;
    Bytes.blit payload 0 merged backlog (Bytes.length payload);
    s.pending <- merged;
    s.off <- 0
  end;
  let len = Bytes.length s.pending in
  let rec flush () =
    if s.off >= len then true
    else
      match Unix.write s.sfd s.pending s.off (len - s.off) with
      | n ->
          s.off <- s.off + n;
          flush ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          len - s.off <= max_backlog
  in
  match flush () with
  | keep ->
      if not keep then (try Unix.close s.sfd with Unix.Unix_error _ -> ());
      keep
  | exception Unix.Unix_error _ ->
      (try Unix.close s.sfd with Unix.Unix_error _ -> ());
      false

let publish ~port =
  let listener = Wire.listen_on port in
  let p = { subs = []; stopped = false; mu = Mutex.create () } in
  Wire.accept_in_thread listener (subscribe p);
  let write l =
    let payload = Bytes.unsafe_of_string (l ^ "\n") in
    locked p.mu (fun () ->
        p.subs <- List.filter (fun s -> subscriber_write s payload) p.subs)
  in
  let close () =
    locked p.mu (fun () ->
        p.stopped <- true;
        List.iter
          (fun s -> try Unix.close s.sfd with Unix.Unix_error _ -> ())
          p.subs;
        p.subs <- []);
    Wire.close_listener listener
  in
  { write; close }

let tee a b =
  {
    write =
      (fun l ->
        a.write l;
        b.write l);
    close =
      (fun () ->
        a.close ();
        b.close ());
  }

let emit_to sink (e : Refill.Stream.emitted) =
  if sink != null then begin
    sink.write (line e);
    Option.iter sink.write (prov_line e.flow)
  end
