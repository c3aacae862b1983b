type item = (Protocol.label, Logsys.Record.t) Engine.item

type payloads =
  | Arena of Logsys.Arena.t
  | Records of Logsys.Record.t array * int array

type t = {
  origin : int;
  seq : int;
  stats : Engine.stats;
  prov : Provenance.t array;
  nodes : int array;
  codes : int array;
  peers : int array;
  rows : int array;
  payloads : payloads;
}

(* [codes.(k)]: the label's kind tag (bits 0-2, {!Logsys.Codec.tag_of_kind}
   order), inferred (bit 3), has a payload (bit 4), entered state (bits 5
   and up, read back with [asr]). *)
let inferred_bit = 8

let payload_bit = 16

let code ~tag ~inferred ~payload ~entered =
  tag
  lor (if inferred then inferred_bit else 0)
  lor (if payload then payload_bit else 0)
  lor (entered lsl 5)

let labels =
  Protocol.
    [| L_gen; L_recv; L_dup; L_overflow; L_trans; L_ack; L_timeout; L_deliver |]

let tag_of_label : Protocol.label -> int = function
  | L_gen -> 0
  | L_recv -> 1
  | L_dup -> 2
  | L_overflow -> 3
  | L_trans -> 4
  | L_ack -> 5
  | L_timeout -> 6
  | L_deliver -> 7

let length t = Array.length t.codes

let packet_key t = (t.origin, t.seq)

let row t k = t.rows.(k)

let node t k = t.nodes.(k)

let label t k = labels.(t.codes.(k) land 7)

let inferred t k = t.codes.(k) land inferred_bit <> 0

let entered t k = t.codes.(k) asr 5

let find_entered t state =
  let n = length t in
  let rec go k = if k >= n || entered t k = state then k else go (k + 1) in
  let k = go 0 in
  if k < n then k else -1

let rfind_entered t state =
  let rec go k = if k < 0 || entered t k = state then k else go (k - 1) in
  go (length t - 1)

let rfind_node t node ~from =
  let rec go k = if k < from || t.nodes.(k) = node then k else go (k - 1) in
  let k = go (length t - 1) in
  if k >= from then k else -1

(* The peer a record's kind names, [0] for the kinds without one. *)
let record_peer (r : Logsys.Record.t) =
  match r.kind with
  | Gen | Deliver -> 0
  | Recv { from } | Dup { from } | Overflow { from } -> from
  | Trans { to_ } | Ack_recvd { to_ } | Retx_timeout { to_ } -> to_

(* A record's kind tag ({!Logsys.Codec.tag_of_kind}), matched here so the
   renderer calls nothing per item. *)
let record_tag (r : Logsys.Record.t) =
  match r.kind with
  | Gen -> 0
  | Recv _ -> 1
  | Dup _ -> 2
  | Overflow _ -> 3
  | Trans _ -> 4
  | Ack_recvd _ -> 5
  | Retx_timeout _ -> 6
  | Deliver -> 7

(* The record item [k] stores verbatim, if any: a record-backed flow's
   logged items and every payload of a hand-built flow. *)
let stored t k =
  match t.payloads with
  | Records (records, refs) ->
      let i = refs.(k) in
      if i >= 0 then Some records.(i) else None
  | Arena _ -> None

let has_peer tag = tag >= 1 && tag <= 6

(* A stored record speaks for itself; every other payload is the
   engine's — a logged row, whose tag and node are the item's, or a
   synthesized record of the item's label and node. *)
let peer t k =
  match t.payloads with
  | Records (records, refs) when refs.(k) >= 0 ->
      let r = records.(refs.(k)) in
      if has_peer (record_tag r) then Some (record_peer r) else None
  | Arena _ | Records _ ->
      let c = t.codes.(k) in
      if c land payload_bit <> 0 && has_peer (c land 7) then Some t.peers.(k)
      else None

let item t k : item =
  let c = t.codes.(k) in
  let node = t.nodes.(k) and inferred = c land inferred_bit <> 0 in
  let payload =
    if c land payload_bit = 0 then None
    else
      match (stored t k, t.payloads) with
      | Some r, _ -> Some r
      | None, Arena a when not inferred -> Some (Logsys.Arena.get a t.rows.(k))
      | None, (Arena _ | Records _) ->
          let tag = c land 7 in
          Some
            {
              Logsys.Record.node;
              kind =
                Logsys.Codec.kind_of_tag tag
                  (if has_peer tag then Some t.peers.(k) else None);
              origin = t.origin;
              pkt_seq = t.seq;
              true_time = Float.nan;
              gseq = -1;
            }
  in
  { node; label = labels.(c land 7); payload; inferred; entered = c asr 5 }

let items t = List.init (length t) (item t)

let logged_items t = List.filter (fun (i : item) -> not i.inferred) (items t)

let inferred_items t = List.filter (fun (i : item) -> i.inferred) (items t)

let last_item t =
  let n = length t in
  if n = 0 then None else Some (item t (n - 1))

(* One packet's emissions as the packed columns, in a per-domain buffer
   grown to the largest packet seen: each flow copies out its prefix, so
   a packet allocates only the arrays its flow keeps. *)
module Builder = struct
  type b = {
    mutable nodes : int array;
    mutable codes : int array;
    mutable peers : int array;
    mutable len : int;
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { nodes = [||]; codes = [||]; peers = [||]; len = 0 })

  let get () =
    let b = Domain.DLS.get key in
    b.len <- 0;
    b

  let push b (it : item) =
    let k = b.len in
    if k = Array.length b.nodes then begin
      let grow a =
        let a' = Array.make (max 64 (2 * k)) 0 in
        Array.blit a 0 a' 0 k;
        a'
      in
      b.nodes <- grow b.nodes;
      b.codes <- grow b.codes;
      b.peers <- grow b.peers
    end;
    let tag = tag_of_label it.label in
    Array.unsafe_set b.nodes k it.node;
    (match it.payload with
    | None ->
        Array.unsafe_set b.codes k
          (code ~tag ~inferred:it.inferred ~payload:false ~entered:it.entered);
        Array.unsafe_set b.peers k 0
    | Some r ->
        Array.unsafe_set b.codes k
          (code ~tag ~inferred:it.inferred ~payload:true ~entered:it.entered);
        Array.unsafe_set b.peers k (record_peer r));
    b.len <- k + 1

  let finish b ~origin ~seq ~stats ~prov ~rows payloads =
    let n = b.len in
    {
      origin;
      seq;
      stats;
      prov;
      nodes = Array.sub b.nodes 0 n;
      codes = Array.sub b.codes 0 n;
      peers = Array.sub b.peers 0 n;
      rows;
      payloads;
    }
end

let of_items ?rows ~origin ~seq ~stats ?(prov = [||]) items =
  let items = Array.of_list items in
  let n = Array.length items in
  let rows =
    match rows with
    | None -> Array.make n (-1)
    | Some rows ->
        if Array.length rows <> n then
          invalid_arg "Flow.of_items: one row per item";
        Array.copy rows
  in
  (* Every payload is stored as given, so the view returns it verbatim. *)
  let stored = ref [] and n_stored = ref 0 in
  let refs =
    Array.map
      (fun (i : item) ->
        match i.payload with
        | None -> -1
        | Some r ->
            stored := r :: !stored;
            incr n_stored;
            !n_stored - 1)
      items
  in
  let records = Array.of_list (List.rev !stored) in
  {
    origin;
    seq;
    stats;
    prov;
    nodes = Array.map (fun (i : item) -> i.node) items;
    codes =
      Array.map
        (fun (i : item) ->
          code ~tag:(tag_of_label i.label) ~inferred:i.inferred
            ~payload:(i.payload <> None) ~entered:i.entered)
        items;
    peers = Array.make n 0;
    rows;
    payloads = Records (records, refs);
  }

let with_rows t rows = { t with rows }

(* -- Rendering ------------------------------------------------------------- *)

let add_node b n =
  if n = Protocol.unknown_node then Buffer.add_char b '?'
  else Prelude.Decimal.add_int b n

(* One item: ["1-2 recv"] when its payload names a link, else
   ["gen@1"]; bracketed when inferred. *)
let add_rendered b ~name ~node ~inferred tag pnode peer =
  if inferred then Buffer.add_char b '[';
  if has_peer tag then begin
    (* recv/dup/overflow name the sender; the rest name the target. *)
    add_node b (if tag <= 3 then peer else pnode);
    Buffer.add_char b '-';
    add_node b (if tag <= 3 then pnode else peer);
    Buffer.add_char b ' ';
    Buffer.add_string b name
  end
  else begin
    Buffer.add_string b name;
    Buffer.add_char b '@';
    add_node b node
  end;
  if inferred then Buffer.add_char b ']'

let add_item_at b t k =
  let c = t.codes.(k) in
  let name = Protocol.label_name labels.(c land 7)
  and node = t.nodes.(k)
  and inferred = c land inferred_bit <> 0 in
  match t.payloads with
  | Records (records, refs) when refs.(k) >= 0 ->
      let r = records.(refs.(k)) in
      add_rendered b ~name ~node ~inferred
        (record_tag r)
        r.node (record_peer r)
  | Arena _ | Records _ ->
      if c land payload_bit = 0 then
        add_rendered b ~name ~node ~inferred (-1) 0 0
      else add_rendered b ~name ~node ~inferred (c land 7) node t.peers.(k)

let add_to_buffer b t =
  for k = 0 to length t - 1 do
    if k > 0 then Buffer.add_string b ", ";
    add_item_at b t k
  done

let render add x ~size =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let item_to_string (i : item) =
  let b = Buffer.create 24 in
  let name = Protocol.label_name i.label in
  (match i.payload with
  | Some r ->
      add_rendered b ~name ~node:i.node ~inferred:i.inferred
        (record_tag r)
        r.node (record_peer r)
  | None -> add_rendered b ~name ~node:i.node ~inferred:i.inferred (-1) 0 0);
  Buffer.contents b

let to_string t = render add_to_buffer t ~size:(24 * length t)

let participants t =
  (* Hop order first, then any remaining nodes that only appear in events. *)
  let in_order = ref [] in
  let add n =
    if n >= 0 && not (List.mem n !in_order) then in_order := n :: !in_order
  in
  let items = items t in
  List.iter
    (fun (i : item) ->
      if i.entered = Protocol.holding then add i.node)
    items;
  List.iter
    (fun (i : item) ->
      add i.node;
      match i.payload with
      | Some r -> (
          match Logsys.Record.peer r with Some p -> add p | None -> ())
      | None -> ())
    items;
  List.rev !in_order

let to_sequence_diagram t =
  let nodes = participants t in
  if nodes = [] then "(empty flow)\n"
  else begin
    let col_width = 12 in
    let col n =
      match List.find_index (Int.equal n) nodes with
      | Some i -> i * col_width
      | None -> 0
    in
    let width = (List.length nodes * col_width) + 2 in
    let buf = Buffer.create 2048 in
    (* Header: node labels over their lifelines. *)
    let header = Bytes.make width ' ' in
    List.iter
      (fun n ->
        let label = Printf.sprintf "n%d" n in
        Bytes.blit_string label 0 header (col n)
          (min (String.length label) (width - col n)))
      nodes;
    Buffer.add_string buf (Bytes.to_string header);
    Buffer.add_char buf '\n';
    let lifeline line =
      List.iter
        (fun n -> if Bytes.get line (col n) = ' ' then Bytes.set line (col n) '|')
        nodes
    in
    List.iter
      (fun (i : item) ->
        let line = Bytes.make width ' ' in
        let annotate text at =
          Bytes.blit_string text 0 line at
            (min (String.length text) (width - at))
        in
        let name = Protocol.label_name i.label in
        let name = if i.inferred then "[" ^ name ^ "]" else name in
        (match Option.bind i.payload Logsys.Record.link with
        | Some (src, dst) when src >= 0 && dst >= 0 && src <> dst ->
            (* The ACK frame travels receiver -> sender; draw it that way. *)
            let a, b =
              if i.label = Protocol.L_ack then (col dst, col src)
              else (col src, col dst)
            in
            let lo = min a b and hi = max a b in
            for x = lo + 1 to hi - 1 do
              Bytes.set line x '-'
            done;
            Bytes.set line (if a < b then hi else lo)
              (if a < b then '>' else '<');
            lifeline line;
            annotate name (hi + 2)
        | Some _ | None ->
            lifeline line;
            annotate ("* " ^ name) (col i.node + 1));
        Buffer.add_string buf (Bytes.to_string line);
        Buffer.add_char buf '\n')
      (items t);
    Buffer.contents buf
  end

let nodes_visited t =
  let acc = ref [] in
  for k = 0 to length t - 1 do
    if entered t k = Protocol.holding && not (List.mem t.nodes.(k) !acc) then
      acc := t.nodes.(k) :: !acc
  done;
  List.rev !acc
