(* refill-wire v1: the framing both ends of a `refill serve` connection
   speak.

   Connection prologue (both lines ASCII, newline-terminated):

     client -> server   "refill-wire v1\n"
     server -> client   "refill-wire v1 ok max-frame=<N>\n"

   then length-prefixed frames in both directions:

     u32 big-endian payload length | u8 frame type | payload bytes

   Client frames: 'D' (payload = Codec.encode_segment bytes), 'E'
   (end-of-stream, empty payload).  Server frames: 'A' (ack: u64be frames
   accepted so far on this connection, u64be records accepted).  Every
   accepted 'D' and the final 'E' is acked; an ack means the records have
   been fed to the stream, so a client that wants a total cross-connection
   order can wait for the ack before the next sender proceeds, and a frame
   the stream failed on is never acked.

   Anything that violates the protocol — bad magic, an unknown frame
   type, a length above the negotiated maximum, a payload that fails to
   decode — raises [Protocol_error]; the server kills that connection
   and keeps serving the rest. *)

let magic = "refill-wire v1"
let frame_data = 'D'
let frame_end = 'E'
let frame_ack = 'A'
let default_max_frame = 1 lsl 20
let header_size = 5

exception Protocol_error of string

let proto_fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* -- blocking fd helpers ---------------------------------------------------- *)

(* EOF mid-structure is a protocol violation (frames are atomic);
   [Unix_error] (including EAGAIN from a receive timeout) propagates to the
   connection driver, which maps it to a close reason. *)
let read_exact fd buf off len =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.read fd buf !pos !remaining in
    if n = 0 then proto_fail "unexpected EOF (%d bytes short)" !remaining;
    pos := !pos + n;
    remaining := !remaining - n
  done

let write_all fd buf off len =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd buf !pos !remaining in
    pos := !pos + n;
    remaining := !remaining - n
  done

let write_string fd s = write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* One byte at a time is fine here: greetings are exchanged once per
   connection and must not read past their own newline (the first frame
   follows immediately). *)
let read_line_crude fd ~max =
  let buf = Buffer.create 32 in
  let one = Bytes.create 1 in
  let rec go () =
    read_exact fd one 0 1;
    match Bytes.get one 0 with
    | '\n' -> Buffer.contents buf
    | c ->
        if Buffer.length buf >= max then proto_fail "greeting line too long";
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* -- listeners -------------------------------------------------------------- *)

(* The server's three listeners (wire port, /metrics, emit tap) share one
   bind path, one accept loop and one stop path. *)

type listener = {
  lfd : Unix.file_descr;
  lport : int;
  stopped : bool Atomic.t;
  mutable accepter : Thread.t option;
}

let listen_on port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) ->
        { lfd = fd; lport = p; stopped = Atomic.make false; accepter = None }
    | Unix.ADDR_UNIX _ -> assert false
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let listener_port l = l.lport

let accept_in_thread l on_accept =
  let rec loop () =
    match Unix.accept l.lfd with
    | fd, _ ->
        if Atomic.get l.stopped then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          on_accept fd;
          loop ()
        end
    | exception Unix.Unix_error _ -> ()
  in
  l.accepter <- Some (Thread.create loop ())

(* Closing an fd does not wake a thread already blocked in accept(2):
   that call keeps the socket, and its port, alive, and a late accept
   thread could even pick up the fd number once it is reused.  So wake
   the thread first — shutdown usually does it on Linux, the loopback
   self-connect covers platforms where it does not — join it, and only
   then close. *)
let close_listener l =
  Atomic.set l.stopped true;
  (try Unix.shutdown l.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | s ->
      (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, l.lport))
       with Unix.Unix_error _ -> ());
      (try Unix.close s with Unix.Unix_error _ -> ()));
  Option.iter Thread.join l.accepter;
  try Unix.close l.lfd with Unix.Unix_error _ -> ()

(* -- prologue --------------------------------------------------------------- *)

let client_greeting = magic ^ "\n"

let server_greeting ~max_frame =
  Printf.sprintf "%s ok max-frame=%d\n" magic max_frame

let send_client_greeting fd = write_string fd client_greeting

let expect_client_greeting fd =
  let line = read_line_crude fd ~max:64 in
  if line <> magic then proto_fail "bad magic %S (want %S)" line magic

let send_server_greeting fd ~max_frame =
  write_string fd (server_greeting ~max_frame)

(* "refill-wire v1 ok max-frame=<N>" *)
let expect_server_greeting fd =
  let line = read_line_crude fd ~max:128 in
  match String.split_on_char ' ' line with
  | [ w1; w2; "ok"; kv ] when w1 ^ " " ^ w2 = magic -> (
      match String.split_on_char '=' kv with
      | [ "max-frame"; n ] -> (
          match int_of_string_opt n with
          | Some m when m > 0 -> m
          | _ -> proto_fail "bad max-frame in %S" line)
      | _ -> proto_fail "bad server greeting %S" line)
  | _ -> proto_fail "server refused: %S" line

(* -- frames ----------------------------------------------------------------- *)

let write_frame fd ~typ payload =
  let len = Bytes.length payload in
  let hdr = Bytes.create header_size in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  Bytes.set hdr 4 typ;
  write_all fd hdr 0 header_size;
  if len > 0 then write_all fd payload 0 len

(* Returns the frame type and payload.  The length is validated against
   [max_payload] before any payload byte is read, so an absurd header
   cannot make the server allocate or buffer unboundedly. *)
let read_frame fd ~max_payload =
  let hdr = Bytes.create header_size in
  read_exact fd hdr 0 header_size;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  let typ = Bytes.get hdr 4 in
  if len < 0 || len > max_payload then
    proto_fail "frame length %d outside [0, %d]" len max_payload;
  let payload = Bytes.create len in
  if len > 0 then read_exact fd payload 0 len;
  (typ, payload)

(* -- acks ------------------------------------------------------------------- *)

type ack = { frames : int; records : int }

let write_ack fd a =
  let payload = Bytes.create 16 in
  Bytes.set_int64_be payload 0 (Int64.of_int a.frames);
  Bytes.set_int64_be payload 8 (Int64.of_int a.records);
  write_frame fd ~typ:frame_ack payload

let read_ack fd =
  match read_frame fd ~max_payload:16 with
  | t, payload when t = frame_ack && Bytes.length payload = 16 ->
      {
        frames = Int64.to_int (Bytes.get_int64_be payload 0);
        records = Int64.to_int (Bytes.get_int64_be payload 8);
      }
  | t, _ -> proto_fail "expected ack, got frame type %C" t
