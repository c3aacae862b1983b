let c_encoded_bytes =
  Refill_obs.Metrics.Counter.v "logsys_codec_encoded_bytes_total"
    ~help:"Bytes produced when encoding node logs for transport."

let c_decoded_records =
  Refill_obs.Metrics.Counter.v "logsys_codec_decoded_records_total"
    ~help:"Records recovered when decoding transported logs."

(* Kind tags: stable on-disk values. *)
let tag_of_kind (kind : Record.kind) =
  match kind with
  | Gen -> 0
  | Recv _ -> 1
  | Dup _ -> 2
  | Overflow _ -> 3
  | Trans _ -> 4
  | Ack_recvd _ -> 5
  | Retx_timeout _ -> 6
  | Deliver -> 7

let peer_of_kind (kind : Record.kind) =
  match kind with
  | Gen | Deliver -> None
  | Recv { from } | Dup { from } | Overflow { from } -> Some from
  | Trans { to_ } | Ack_recvd { to_ } | Retx_timeout { to_ } -> Some to_

let kind_of_tag tag peer : Record.kind =
  let need_peer name =
    match peer with
    | Some p -> p
    | None -> failwith ("Codec: missing peer for " ^ name)
  in
  match tag with
  | 0 -> Gen
  | 1 -> Recv { from = need_peer "recv" }
  | 2 -> Dup { from = need_peer "dup" }
  | 3 -> Overflow { from = need_peer "overflow" }
  | 4 -> Trans { to_ = need_peer "trans" }
  | 5 -> Ack_recvd { to_ = need_peer "ack" }
  | 6 -> Retx_timeout { to_ = need_peer "timeout" }
  | 7 -> Deliver
  | t -> failwith (Printf.sprintf "Codec: unknown kind tag %d" t)

(* LEB128 unsigned varints. Negative values (the unknown-peer -1) are
   zig-zag mapped first.  The mapping doubles its argument, so only ints
   in [-max_int/2 - 1, max_int/2] survive the round trip; anything larger
   would silently wrap and corrupt the stream, so encoders reject it —
   the encode-side mirror of [read_varint]'s >63-bit guard. *)
let zigzag n =
  if n > max_int / 2 || n < -(max_int / 2) - 1 then
    failwith (Printf.sprintf "Codec: zigzag value out of range: %d" n);
  if n >= 0 then 2 * n else (-2 * n) - 1

(* [-(z / 2) - 1], not [-((z + 1) / 2)]: for [z = max_int] the latter's
   increment wraps to [min_int] and flips the sign of the result. *)
let unzigzag z = if z land 1 = 0 then z / 2 else -(z / 2) - 1

let rec write_varint_loop buf v =
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
    write_varint_loop buf (v lsr 7)
  end

let write_varint buf v =
  (* A negative input would otherwise die many iterations deep with
     [Char.chr]'s [Invalid_argument]; fail fast with a Codec error. *)
  if v < 0 then
    failwith (Printf.sprintf "Codec: varint of negative value: %d" v);
  write_varint_loop buf v

let read_varint b pos =
  let len = Bytes.length b in
  let rec go pos shift acc =
    (* An OCaml int holds 63 bits, i.e. at most 9 payload groups (shifts
       0..56).  A continuation byte at shift 63 would silently discard
       bits, so malformed/hostile input is rejected instead. *)
    if shift > 56 then failwith "Codec: varint overflow (>63 bits)";
    if pos >= len then failwith "Codec: truncated varint";
    let byte = Char.code (Bytes.get b pos) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go (max v 0) 1

let encode_record buf (r : Record.t) =
  Buffer.add_char buf (Char.chr (tag_of_kind r.kind));
  (match peer_of_kind r.kind with
  | Some p -> write_varint buf (zigzag p)
  | None -> ());
  write_varint buf (zigzag r.origin);
  write_varint buf (zigzag r.pkt_seq)

let decode_record ~node b ~pos =
  if pos >= Bytes.length b then failwith "Codec: truncated record";
  let tag = Char.code (Bytes.get b pos) in
  let pos = pos + 1 in
  let peer, pos =
    (* Tags 1–6 carry a peer. *)
    if tag >= 1 && tag <= 6 then begin
      let z, pos = read_varint b pos in
      (Some (unzigzag z), pos)
    end
    else (None, pos)
  in
  let zorigin, pos = read_varint b pos in
  let zseq, pos = read_varint b pos in
  let record : Record.t =
    {
      node;
      kind = kind_of_tag tag peer;
      origin = unzigzag zorigin;
      pkt_seq = unzigzag zseq;
      true_time = Float.nan;
      gseq = -1;
    }
  in
  (record, pos)

let encode_log log =
  let buf = Buffer.create (8 * Array.length log) in
  Array.iter (encode_record buf) log;
  let b = Buffer.to_bytes buf in
  Refill_obs.Metrics.Counter.inc ~by:(Bytes.length b) c_encoded_bytes;
  b

let decode_log ~node b =
  let len = Bytes.length b in
  if len = 0 then [||]
  else begin
    (* Every record costs at least 3 bytes (tag + origin + seq varints), so
       [len / 3 + 1] slots always suffice — preallocate once and trim,
       instead of cons-ing a list only to copy it into an array. *)
    let first, pos = decode_record ~node b ~pos:0 in
    let out = Array.make ((len / 3) + 1) first in
    let count = ref 1 in
    let pos = ref pos in
    while !pos < len do
      let r, next = decode_record ~node b ~pos:!pos in
      out.(!count) <- r;
      incr count;
      pos := next
    done;
    let records = if !count = Array.length out then out else Array.sub out 0 !count in
    Refill_obs.Metrics.Counter.inc ~by:!count c_decoded_records;
    records
  end

(* Segments are cross-node slices of the collection stream, so unlike
   [encode_log] each record must carry its recording node. *)
let encode_segment records =
  let buf = Buffer.create (8 * Array.length records + 4) in
  write_varint buf (Array.length records);
  Array.iter
    (fun (r : Record.t) ->
      write_varint buf (zigzag r.node);
      encode_record buf r)
    records;
  let b = Buffer.to_bytes buf in
  Refill_obs.Metrics.Counter.inc ~by:(Bytes.length b) c_encoded_bytes;
  b

let decode_segment b =
  let count, pos = read_varint b 0 in
  if count < 0 || count > Bytes.length b then
    failwith "Codec: implausible segment count";
  let pos = ref pos in
  let out =
    Array.init count (fun _ ->
        let znode, p = read_varint b !pos in
        let r, p = decode_record ~node:(unzigzag znode) b ~pos:p in
        pos := p;
        r)
  in
  if !pos <> Bytes.length b then failwith "Codec: trailing bytes in segment";
  Refill_obs.Metrics.Counter.inc ~by:count c_decoded_records;
  out

let encoded_size (r : Record.t) =
  1
  + (match peer_of_kind r.kind with
    | Some p -> varint_size (zigzag p)
    | None -> 0)
  + varint_size (zigzag r.origin)
  + varint_size (zigzag r.pkt_seq)

let log_size log = Array.fold_left (fun acc r -> acc + encoded_size r) 0 log
