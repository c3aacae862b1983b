(* The feeding side of refill-wire: what `refill feed`, the integration
   tests, and the serve bench use to push a record stream into a live
   server.

   Two sending modes with different guarantees:

   - [send] is lockstep: frame out, ack in, ack returned.  After it
     returns, the records have been fed to the server's stream — a group
     of clients that take turns calling [send] imposes an exact total
     order across connections (what the byte-identity test does).
   - [send_nowait] pipelines: frames are written back to back and acks
     collected later ([drain_acks] / [finish]).  Order within the
     connection still holds; order across connections does not.  This is
     the throughput mode, and the one that exercises the server's
     backpressure. *)

type t = {
  fd : Unix.file_descr;
  max_frame : int;
  mutable frames_sent : int;
  mutable records_sent : int;
  mutable bytes_sent : int;
  mutable acks_pending : int;
  mutable rtts : float array;  (** Lockstep round-trips, seconds. *)
  mutable n_rtts : int;
}

type stats = {
  frames : int;
  records : int;
  bytes : int;
  rtt_p50 : float;
  rtt_p99 : float;  (** 0. when no lockstep sends were timed. *)
}

let connect ?(host = Unix.inet_addr_loopback) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let max_frame =
    try
      Unix.connect fd (Unix.ADDR_INET (host, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Wire.send_client_greeting fd;
      Wire.expect_server_greeting fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  {
    fd;
    max_frame;
    frames_sent = 0;
    records_sent = 0;
    bytes_sent = 0;
    acks_pending = 0;
    rtts = Array.make 256 0.0;
    n_rtts = 0;
  }

let max_frame t = t.max_frame

let push_rtt t dt =
  if t.n_rtts = Array.length t.rtts then begin
    let bigger = Array.make (2 * t.n_rtts) 0.0 in
    Array.blit t.rtts 0 bigger 0 t.n_rtts;
    t.rtts <- bigger
  end;
  t.rtts.(t.n_rtts) <- dt;
  t.n_rtts <- t.n_rtts + 1

let account t ~payload_len ~records =
  t.frames_sent <- t.frames_sent + 1;
  t.records_sent <- t.records_sent + records;
  t.bytes_sent <- t.bytes_sent + payload_len

exception Record_too_large of { encoded : int; max_frame : int }

let () =
  Printexc.register_printer (function
    | Record_too_large { encoded; max_frame } ->
        Some
          (Printf.sprintf
             "Refill_serve.Client.Record_too_large: a single record encodes \
              to %d bytes, above the negotiated max-frame of %d"
             encoded max_frame)
    | _ -> None)

(* Split batches whose encoding exceeds the negotiated frame size; the
   server sees the same record sequence either way.  A single record that
   cannot fit is a client-side error: sending it would only make the
   server kill the connection, surfacing as a baffling EOF on the next
   ack read. *)
let rec each_frame t records k =
  let payload = Logsys.Codec.encode_segment records in
  if Bytes.length payload <= t.max_frame then
    k ~payload ~records:(Array.length records)
  else if Array.length records <= 1 then
    raise
      (Record_too_large
         { encoded = Bytes.length payload; max_frame = t.max_frame })
  else begin
    let half = Array.length records / 2 in
    each_frame t (Array.sub records 0 half) k;
    each_frame t (Array.sub records half (Array.length records - half)) k
  end

let send t records =
  let last = ref { Wire.frames = t.frames_sent; records = t.records_sent } in
  each_frame t records (fun ~payload ~records ->
      let t0 = Unix.gettimeofday () in
      Wire.write_frame t.fd ~typ:Wire.frame_data payload;
      last := Wire.read_ack t.fd;
      push_rtt t (Unix.gettimeofday () -. t0);
      account t ~payload_len:(Bytes.length payload) ~records);
  !last

let send_nowait t records =
  each_frame t records (fun ~payload ~records ->
      Wire.write_frame t.fd ~typ:Wire.frame_data payload;
      t.acks_pending <- t.acks_pending + 1;
      account t ~payload_len:(Bytes.length payload) ~records)

let drain_acks t =
  let last = ref None in
  while t.acks_pending > 0 do
    last := Some (Wire.read_ack t.fd);
    t.acks_pending <- t.acks_pending - 1
  done;
  !last

let finish t =
  ignore (drain_acks t);
  Wire.write_frame t.fd ~typ:Wire.frame_end (Bytes.create 0);
  let ack = Wire.read_ack t.fd in
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  ack

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let stats t =
  let rtts = Array.sub t.rtts 0 t.n_rtts in
  Array.sort compare rtts;
  {
    frames = t.frames_sent;
    records = t.records_sent;
    bytes = t.bytes_sent;
    rtt_p50 = percentile rtts 0.50;
    rtt_p99 = percentile rtts 0.99;
  }

(* Feed an open dump's records in file order, [chunk] records per send.
   The dump's own sink/n_nodes header is not the feeder's concern —
   topology parameters live server-side. *)
let feed_file ?(chunk = 512) ?(lockstep = true) t reader =
  let arena = Logsys.Arena.create ~capacity:chunk () in
  let rec loop () =
    Logsys.Arena.clear arena;
    if Logsys.Log_io.Mseg.next_into reader arena ~max_records:chunk > 0
    then begin
      let seg = Logsys.Arena.slice_records (Logsys.Arena.slice_all arena) in
      if lockstep then ignore (send t seg) else send_nowait t seg;
      loop ()
    end
  in
  loop ()
