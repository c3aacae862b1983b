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

   Every subscriber connected to the listener receives each line written
   after it connected.  A hard write failure drops that subscriber alone;
   a momentarily full socket keeps the undelivered tail in a bounded
   backlog, retried on the next write, so lines are never torn, and only
   a peer stalled past [max_backlog] bytes is dropped (its stream ends
   mid-line).  Lines written while nobody is connected are dropped: this
   is a tap, not a queue; durable capture is [to_file].  Every write
   comes from the thread that feeds the stream, so the tap takes no
   lock. *)

let max_backlog = 1 lsl 18

(* Subscribers waiting on the listener join at a write, so the tap needs
   no thread of its own; a look is an accept(2) call, so [write] looks at
   its first line and then at most every 50 ms, not at every line. *)
let rec accept_all l subs =
  match Unix.accept ~cloexec:true l.Wire.fd with
  | fd, _ -> accept_all l (Conn.create ~id:0 ~wire:false fd ~deadline:0. :: subs)
  | exception Unix.Unix_error _ -> subs

(* Queue the line behind whatever is still undelivered and push what the
   socket takes; [false] (dropped, closed) on a hard write error or a
   backlog past [max_backlog]. *)
let deliver payload (s : Conn.t) =
  match Conn.send s payload ~deadline:0. with
  | () when Bytes.length s.out - s.ooff <= max_backlog -> true
  | () | (exception Unix.Unix_error _) ->
      Conn.close s ~reason:None;
      false

let publish ~port =
  let l = Wire.listen_on port in
  let subs = ref [] and next_look = ref neg_infinity in
  let write line =
    let now = Unix.gettimeofday () in
    if now >= !next_look then begin
      subs := accept_all l !subs;
      next_look := now +. 0.05
    end;
    let payload = Bytes.unsafe_of_string (line ^ "\n") in
    subs := List.filter (deliver payload) !subs
  in
  let close () =
    List.iter (fun s -> Conn.close s ~reason:None) !subs;
    subs := [];
    Wire.close_listener l
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
