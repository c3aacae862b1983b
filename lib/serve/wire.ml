(* refill-wire v1 (the protocol is described in wire.mli):

     client -> server   "refill-wire v1\n"
     server -> client   "refill-wire v1 ok max-frame=<N>\n"
     then frames:       u32be payload length | u8 type | payload

   Client frames are 'D' (Codec.encode_segment bytes) and 'E' (end of
   stream); the server answers each accepted one with an 'A' ack.  A
   violation raises [Protocol_error], and the server kills only that
   connection.  The blocking helpers below are the client's; the server
   reads and writes through its own buffers. *)

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
   [Unix_error] propagates to the caller. *)
let read_exact fd buf off len =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.read fd buf !pos !remaining in
    if n = 0 then proto_fail "unexpected EOF (%d bytes short)" !remaining;
    pos := !pos + n;
    remaining := !remaining - n
  done

(* [Unix.write] itself repeats until every byte is written. *)
let write_all fd buf off len = ignore (Unix.write fd buf off len)

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
   bind path.  They are nonblocking: the serve loop accepts when select
   says so, and the emit tap when a write looks for subscribers. *)

type listener = { fd : Unix.file_descr; port : int }

let listen_on port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> { fd; port = p }
    | Unix.ADDR_UNIX _ -> assert false
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close_listener l = try Unix.close l.fd with Unix.Unix_error _ -> ()

(* -- prologue --------------------------------------------------------------- *)

let client_greeting = magic ^ "\n"

let server_greeting ~max_frame =
  Printf.sprintf "%s ok max-frame=%d\n" magic max_frame

let send_client_greeting fd = write_string fd client_greeting

(* The server's answer to a connection it cannot take: any line but
   [ok ...], which clients report as "server refused". *)
let refusal = magic ^ " busy\n"

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

(* The payload length of the header at [off], validated against
   [max_payload] before any payload byte is read, so an absurd header
   cannot make either end allocate or buffer unboundedly. *)
let frame_length hdr off ~max_payload =
  let len = Int32.to_int (Bytes.get_int32_be hdr off) in
  if len < 0 || len > max_payload then
    proto_fail "frame length %d outside [0, %d]" len max_payload;
  len

let read_frame fd ~max_payload =
  let hdr = Bytes.create header_size in
  read_exact fd hdr 0 header_size;
  let len = frame_length hdr 0 ~max_payload in
  let typ = Bytes.get hdr 4 in
  let payload = Bytes.create len in
  if len > 0 then read_exact fd payload 0 len;
  (typ, payload)

(* -- acks ------------------------------------------------------------------- *)

type ack = { frames : int; records : int }

let ack_frame a =
  let b = Bytes.create (header_size + 16) in
  Bytes.set_int32_be b 0 16l;
  Bytes.set b 4 frame_ack;
  Bytes.set_int64_be b 5 (Int64.of_int a.frames);
  Bytes.set_int64_be b 13 (Int64.of_int a.records);
  b

let read_ack fd =
  match read_frame fd ~max_payload:16 with
  | t, payload when t = frame_ack && Bytes.length payload = 16 ->
      {
        frames = Int64.to_int (Bytes.get_int64_be payload 0);
        records = Int64.to_int (Bytes.get_int64_be payload 8);
      }
  | t, _ -> proto_fail "expected ack, got frame type %C" t
