(* Flat column store for event records — the zero-copy ingest layer.

   A record here is a row index into seven parallel columns (six
   Bigarray int columns plus one float64 column for the ground-truth
   timestamp) instead of a heap-allocated [Record.t] with a boxed kind
   variant and a boxed float field.  Bulk decoding appends straight into
   the columns, so ingesting a log allocates nothing per record; the
   existing record API survives as a materializing view ([get]), which
   reconstructs a [Record.equal]-identical [Record.t] on demand.

   Column invariants:
   - [tags] holds the Codec kind tag (0–7).
   - [peers] is meaningful only for tags 1–6 (the link kinds); peer may
     legitimately be -1 (the unknown-node sentinel).  No-peer rows store
     [no_peer] as poison.
   - [times]/[gseqs] carry ground truth when rows come from text dumps
     and [nan]/[-1] when rows come from the binary codec, exactly like
     the record decoders. *)

type icol = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type fcol = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable nodes : icol;
  mutable tags : icol;
  mutable peers : icol;
  mutable origins : icol;
  mutable seqs : icol;
  mutable gseqs : icol;
  mutable times : fcol;
  mutable len : int;
}

type arena = t

type slice = { sl_base : t; sl_off : int; sl_len : int }

let no_peer = min_int

let c_decoded_rows =
  Refill_obs.Metrics.Counter.v "logsys_arena_decoded_rows_total"
    ~help:"Records bulk-decoded directly into arena columns."

let make_icol n : icol = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make_fcol n : fcol =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  {
    nodes = make_icol capacity;
    tags = make_icol capacity;
    peers = make_icol capacity;
    origins = make_icol capacity;
    seqs = make_icol capacity;
    gseqs = make_icol capacity;
    times = make_fcol capacity;
    len = 0;
  }

let length t = t.len

let capacity t = Bigarray.Array1.dim t.nodes

let clear t = t.len <- 0

let grow_icol (c : icol) cap len =
  let g = make_icol cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub c 0 len) (Bigarray.Array1.sub g 0 len);
  g

let grow_fcol (c : fcol) cap len =
  let g = make_fcol cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub c 0 len) (Bigarray.Array1.sub g 0 len);
  g

let reserve t extra =
  let need = t.len + extra in
  let cap = capacity t in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    t.nodes <- grow_icol t.nodes cap' t.len;
    t.tags <- grow_icol t.tags cap' t.len;
    t.peers <- grow_icol t.peers cap' t.len;
    t.origins <- grow_icol t.origins cap' t.len;
    t.seqs <- grow_icol t.seqs cap' t.len;
    t.gseqs <- grow_icol t.gseqs cap' t.len;
    t.times <- grow_fcol t.times cap' t.len
  end

(* -- Row accessors (bounds are the caller's contract on the hot path). --- *)

let node t i = Bigarray.Array1.get t.nodes i
let tag t i = Bigarray.Array1.get t.tags i
let peer t i = Bigarray.Array1.get t.peers i
let origin t i = Bigarray.Array1.get t.origins i
let pkt_seq t i = Bigarray.Array1.get t.seqs i
let gseq t i = Bigarray.Array1.get t.gseqs i
let true_time t i = Bigarray.Array1.get t.times i

let push_row t ~node ~tag ~peer ~origin ~pkt_seq ~true_time ~gseq =
  reserve t 1;
  let i = t.len in
  Bigarray.Array1.unsafe_set t.nodes i node;
  Bigarray.Array1.unsafe_set t.tags i tag;
  Bigarray.Array1.unsafe_set t.peers i peer;
  Bigarray.Array1.unsafe_set t.origins i origin;
  Bigarray.Array1.unsafe_set t.seqs i pkt_seq;
  Bigarray.Array1.unsafe_set t.gseqs i gseq;
  Bigarray.Array1.unsafe_set t.times i true_time;
  t.len <- i + 1

let copy_row src i dst j =
  if i < 0 || i >= src.len || j < 0 || j > dst.len then
    invalid_arg "Arena.copy_row: row out of bounds";
  if j = dst.len then begin
    reserve dst 1;
    dst.len <- j + 1
  end;
  (* Written out column by column: a local helper would be a closure, and
     the float column stays unboxed only within one function. *)
  let open Bigarray.Array1 in
  unsafe_set dst.nodes j (unsafe_get src.nodes i);
  unsafe_set dst.tags j (unsafe_get src.tags i);
  unsafe_set dst.peers j (unsafe_get src.peers i);
  unsafe_set dst.origins j (unsafe_get src.origins i);
  unsafe_set dst.seqs j (unsafe_get src.seqs i);
  unsafe_set dst.gseqs j (unsafe_get src.gseqs i);
  unsafe_set dst.times j (unsafe_get src.times i)

let push t (r : Record.t) =
  let tag = Codec.tag_of_kind r.kind in
  let peer =
    match Codec.peer_of_kind r.kind with Some p -> p | None -> no_peer
  in
  push_row t ~node:r.node ~tag ~peer ~origin:r.origin ~pkt_seq:r.pkt_seq
    ~true_time:r.true_time ~gseq:r.gseq

(* -- Materializing view. ------------------------------------------------- *)

let get t i : Record.t =
  if i < 0 || i >= t.len then invalid_arg "Arena.get: row out of bounds";
  let tag = Bigarray.Array1.unsafe_get t.tags i in
  let peer =
    if tag >= 1 && tag <= 6 then Some (Bigarray.Array1.unsafe_get t.peers i)
    else None
  in
  {
    node = Bigarray.Array1.unsafe_get t.nodes i;
    kind = Codec.kind_of_tag tag peer;
    origin = Bigarray.Array1.unsafe_get t.origins i;
    pkt_seq = Bigarray.Array1.unsafe_get t.seqs i;
    true_time = Bigarray.Array1.unsafe_get t.times i;
    gseq = Bigarray.Array1.unsafe_get t.gseqs i;
  }

(* Two rows hold the same record: [Record.equal] on their materialized
   records, read column by column. *)
let equal_rows t i j =
  let int_eq (col : icol) =
    Bigarray.Array1.get col i = Bigarray.Array1.get col j
  in
  int_eq t.gseqs && int_eq t.nodes && int_eq t.origins && int_eq t.seqs
  && (let ta = Bigarray.Array1.get t.times i
      and tb = Bigarray.Array1.get t.times j in
      ta = tb || (Float.is_nan ta && Float.is_nan tb))
  && int_eq t.tags
  &&
  let tg = Bigarray.Array1.unsafe_get t.tags i in
  tg < 1 || tg > 6 || int_eq t.peers

let of_records records =
  let t = create ~capacity:(max 16 (Array.length records)) () in
  Array.iter (push t) records;
  t

let to_records t = Array.init t.len (get t)

let slice t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Arena.slice: out of bounds";
  { sl_base = t; sl_off = off; sl_len = len }

let slice_all t = { sl_base = t; sl_off = 0; sl_len = t.len }

let slice_records s =
  Array.init s.sl_len (fun i -> get s.sl_base (s.sl_off + i))

(* -- Bulk decoding: the codec's wire formats straight into columns. ------ *)

(* The varint loop is inlined here (rather than calling
   [Codec.read_varint]) so the per-record path allocates nothing — no
   (value, pos) tuples, no records.  Guard semantics match the codec's:
   >63-bit varints and truncation fail, never wrap. *)

let decode_log_into t ~node b =
  let blen = Bytes.length b in
  reserve t (blen / 3);
  let pos = ref 0 in
  let n0 = t.len in
  let read_varint () =
    let shift = ref 0 and acc = ref 0 and cont = ref true in
    while !cont do
      if !shift > 56 then failwith "Arena: varint overflow (>63 bits)";
      if !pos >= blen then failwith "Arena: truncated varint";
      let byte = Char.code (Bytes.unsafe_get b !pos) in
      incr pos;
      acc := !acc lor ((byte land 0x7f) lsl !shift);
      if byte land 0x80 = 0 then cont := false else shift := !shift + 7
    done;
    !acc
  in
  while !pos < blen do
    let tag = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    let peer =
      if tag >= 1 && tag <= 6 then Codec.unzigzag (read_varint ())
      else if tag = 0 || tag = 7 then no_peer
      else failwith (Printf.sprintf "Arena: unknown kind tag %d" tag)
    in
    let origin = Codec.unzigzag (read_varint ()) in
    let seq = Codec.unzigzag (read_varint ()) in
    push_row t ~node ~tag ~peer ~origin ~pkt_seq:seq ~true_time:Float.nan
      ~gseq:(-1)
  done;
  let decoded = t.len - n0 in
  Refill_obs.Metrics.Counter.inc ~by:decoded c_decoded_rows;
  decoded

let decode_segment_into ?(off = 0) ?len t b =
  let blen = match len with Some l -> off + l | None -> Bytes.length b in
  if off < 0 || blen < off || blen > Bytes.length b then
    invalid_arg "Arena.decode_segment_into";
  let pos = ref off in
  let read_varint () =
    let shift = ref 0 and acc = ref 0 and cont = ref true in
    while !cont do
      if !shift > 56 then failwith "Arena: varint overflow (>63 bits)";
      if !pos >= blen then failwith "Arena: truncated varint";
      let byte = Char.code (Bytes.unsafe_get b !pos) in
      incr pos;
      acc := !acc lor ((byte land 0x7f) lsl !shift);
      if byte land 0x80 = 0 then cont := false else shift := !shift + 7
    done;
    !acc
  in
  let count = read_varint () in
  if count < 0 || count > blen - off then
    failwith "Arena: implausible segment count";
  reserve t count;
  for _ = 1 to count do
    let node = Codec.unzigzag (read_varint ()) in
    if !pos >= blen then failwith "Arena: truncated record";
    let tag = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    let peer =
      if tag >= 1 && tag <= 6 then Codec.unzigzag (read_varint ())
      else if tag = 0 || tag = 7 then no_peer
      else failwith (Printf.sprintf "Arena: unknown kind tag %d" tag)
    in
    let origin = Codec.unzigzag (read_varint ()) in
    let seq = Codec.unzigzag (read_varint ()) in
    push_row t ~node ~tag ~peer ~origin ~pkt_seq:seq ~true_time:Float.nan
      ~gseq:(-1)
  done;
  if !pos <> blen then failwith "Arena: trailing bytes in segment";
  Refill_obs.Metrics.Counter.inc ~by:count c_decoded_rows;
  count

(* -- Per-packet index over rows (Collected's views read it too). --------- *)

module Packets = struct
  (* One table interns every distinct (origin, seq) into a dense packet
     id, and buckets are indexed by id, so memory follows rows and
     distinct keys whatever the key values (a corrupt field in a lossy
     log must not size the index). *)
  type t = {
    p_arena : arena;
    p_keys : (int * int) list;
    p_ids : int Keys.t;
    p_buckets : int array array;
    p_node_rows : int array array;
  }

  let compare_key ((o, s) : int * int) (o', s') =
    match Int.compare o o' with 0 -> Int.compare s s' | c -> c

  let build (a : arena) ~n_nodes =
    if n_nodes <= 0 then invalid_arg "Arena.Packets.build: n_nodes <= 0";
    let n = a.len in
    (* Node grouping: rows of each node in arena (= file/write) order —
       the node's log.  The tables stop at the highest node a row names,
       so [n_nodes] (a dump's header) bounds nodes but sizes nothing. *)
    let hi = ref (-1) in
    for i = 0 to n - 1 do
      let nd = Bigarray.Array1.unsafe_get a.nodes i in
      if nd < 0 || nd >= n_nodes then
        failwith "Arena: record node out of range";
      if nd > !hi then hi := nd
    done;
    let node_count = Array.make (!hi + 1) 0 in
    for i = 0 to n - 1 do
      let nd = Bigarray.Array1.unsafe_get a.nodes i in
      node_count.(nd) <- node_count.(nd) + 1
    done;
    let node_rows = Array.map (fun c -> Array.make c 0) node_count in
    let node_fill = Array.make (!hi + 1) 0 in
    for i = 0 to n - 1 do
      let nd = Bigarray.Array1.unsafe_get a.nodes i in
      node_rows.(nd).(node_fill.(nd)) <- i;
      node_fill.(nd) <- node_fill.(nd) + 1
    done;
    (* Each row's packet id.  A node logs a packet's records back to
       back, so the previous row's key is tried before the table. *)
    let ids = Keys.create (-1) in
    let row_id = Array.make n 0 in
    let prev_origin = ref 0 and prev_seq = ref 0 and prev_id = ref (-1) in
    Array.iter
      (Array.iter (fun i ->
           let origin = Bigarray.Array1.unsafe_get a.origins i
           and seq = Bigarray.Array1.unsafe_get a.seqs i in
           if !prev_id < 0 || origin <> !prev_origin || seq <> !prev_seq
           then begin
             prev_origin := origin;
             prev_seq := seq;
             prev_id :=
               match Keys.find ids origin seq with
               | -1 ->
                   let id = Keys.length ids in
                   Keys.add ids origin seq id;
                   id
               | slot -> Keys.value ids slot
           end;
           row_id.(i) <- !prev_id))
      node_rows;
    (* Packet buckets, filled in node-scan order (nodes ascending, each
       node's rows in order) — the order the reconstruction depends on.
       The counts double as fill cursors. *)
    let counts = Array.make (Keys.length ids) 0 in
    Array.iter (fun id -> counts.(id) <- counts.(id) + 1) row_id;
    let buckets = Array.map (fun c -> Array.make c 0) counts in
    Array.fill counts 0 (Array.length counts) 0;
    Array.iter
      (Array.iter (fun i ->
           let id = row_id.(i) in
           buckets.(id).(counts.(id)) <- i;
           counts.(id) <- counts.(id) + 1))
      node_rows;
    {
      p_arena = a;
      p_keys =
        List.sort compare_key (Keys.fold (fun o s _ acc -> (o, s) :: acc) ids []);
      p_ids = ids;
      p_buckets = buckets;
      p_node_rows = node_rows;
    }

  let arena p = p.p_arena

  let n_nodes p = Array.length p.p_node_rows

  let keys p = p.p_keys

  let node_rows p node =
    if node >= 0 && node < Array.length p.p_node_rows then
      p.p_node_rows.(node)
    else [||]

  let packet_rows p ~origin ~seq =
    match Keys.find p.p_ids origin seq with
    | -1 -> [||]
    | slot -> p.p_buckets.(Keys.value p.p_ids slot)
end
