type item = (Protocol.label, Logsys.Record.t) Engine.item

type t = {
  origin : int;
  seq : int;
  stats : Engine.stats;
  prov : Provenance.t array;
  nodes : int array;
  codes : int array;
  peers : int array;
  rows : int array;
  arena : Logsys.Arena.t option;
}

(* [codes.(k)]: the label's kind tag (bits 0-2, {!Protocol.tag_of_label}),
   inferred (bit 3), has a payload (bit 4), entered state (bits 5 and up,
   read back with [asr]). *)
let inferred_bit = 8

let payload_bit = 16

let code ~label ~inferred ~payload ~entered =
  Protocol.tag_of_label label
  lor (if inferred then inferred_bit else 0)
  lor (if payload then payload_bit else 0)
  lor (entered lsl 5)

let length t = Array.length t.codes

let packet_key t = (t.origin, t.seq)

let row t k = t.rows.(k)

let node t k = t.nodes.(k)

let label t k = Protocol.label_of_tag (t.codes.(k) land 7)

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

let has_peer tag = tag >= 1 && tag <= 6

let peer t k =
  let c = t.codes.(k) in
  if c land payload_bit <> 0 && has_peer (c land 7) then Some t.peers.(k)
  else None

(* A logged item with a row of the flow's arena reads its record there;
   every other payload is rebuilt from the item's label, node and peer and
   the flow's packet key. *)
let item t k : item =
  let c = t.codes.(k) in
  let node = t.nodes.(k) and tag = c land 7 in
  let payload =
    if c land payload_bit = 0 then None
    else
      match t.arena with
      | Some a when t.rows.(k) >= 0 -> Some (Logsys.Arena.get a t.rows.(k))
      | Some _ | None ->
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
  {
    node;
    label = Protocol.label_of_tag tag;
    payload;
    inferred = c land inferred_bit <> 0;
    entered = c asr 5;
  }

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

  let push b ~node ~label ~payload ~inferred ~entered =
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
    Array.unsafe_set b.nodes k node;
    Array.unsafe_set b.codes k
      (code ~label ~inferred ~payload:(payload <> None) ~entered);
    Array.unsafe_set b.peers k (match payload with Some p -> p | None -> 0);
    b.len <- k + 1

  let finish b ~origin ~seq ~stats ~prov ~rows arena =
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
      arena;
    }
end

let of_items ?arena ?rows ~origin ~seq ~stats ?(prov = [||]) items =
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
  {
    origin;
    seq;
    stats;
    prov;
    nodes = Array.map (fun (i : item) -> i.node) items;
    codes =
      Array.map
        (fun (i : item) ->
          code ~label:i.label ~inferred:i.inferred
            ~payload:(i.payload <> None) ~entered:i.entered)
        items;
    peers =
      Array.map
        (fun (i : item) ->
          match Option.bind i.payload Logsys.Record.peer with
          | Some p -> p
          | None -> 0)
        items;
    rows;
    arena;
  }

let with_rows t ~arena rows = { t with rows; arena = Some arena }

(* -- Rendering ------------------------------------------------------------- *)

let add_node b n =
  if n = Protocol.unknown_node then Buffer.add_char b '?'
  else Prelude.Decimal.add_int b n

(* One item: ["1-2 recv"] when its payload names a link, else
   ["gen@1"]; bracketed when inferred. *)
let add_item_at b t k =
  let c = t.codes.(k) in
  let tag = c land 7 and node = t.nodes.(k) and peer = t.peers.(k) in
  let inferred = c land inferred_bit <> 0 in
  let name = Protocol.label_name (Protocol.label_of_tag tag) in
  if inferred then Buffer.add_char b '[';
  if c land payload_bit <> 0 && has_peer tag then begin
    (* recv/dup/overflow name the sender; the rest name the target. *)
    add_node b (if tag <= 3 then peer else node);
    Buffer.add_char b '-';
    add_node b (if tag <= 3 then node else peer);
    Buffer.add_char b ' ';
    Buffer.add_string b name
  end
  else begin
    Buffer.add_string b name;
    Buffer.add_char b '@';
    add_node b node
  end;
  if inferred then Buffer.add_char b ']'

let add_to_buffer b t =
  for k = 0 to length t - 1 do
    if k > 0 then Buffer.add_string b ", ";
    add_item_at b t k
  done

let render add x ~size =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let item_to_string t k = render (fun b t -> add_item_at b t k) t ~size:24

let to_string t = render add_to_buffer t ~size:(24 * length t)

(* The [(sender, receiver)] link item [k]'s payload names, as
   [Record.link] of the view's payload. *)
let link t k =
  match peer t k with
  | None -> None
  | Some p ->
      if t.codes.(k) land 7 <= 3 then Some (p, t.nodes.(k))
      else Some (t.nodes.(k), p)

let participants t =
  (* Hop order first, then any remaining nodes that only appear in events. *)
  let in_order = ref [] in
  let add n =
    if n >= 0 && not (List.mem n !in_order) then in_order := n :: !in_order
  in
  for k = 0 to length t - 1 do
    if entered t k = Protocol.holding then add t.nodes.(k)
  done;
  for k = 0 to length t - 1 do
    add t.nodes.(k);
    Option.iter add (peer t k)
  done;
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
    for k = 0 to length t - 1 do
      let line = Bytes.make width ' ' in
      let annotate text at =
        Bytes.blit_string text 0 line at
          (min (String.length text) (width - at))
      in
      let name = Protocol.label_name (label t k) in
      let name = if inferred t k then "[" ^ name ^ "]" else name in
      (match link t k with
      | Some (src, dst) when src >= 0 && dst >= 0 && src <> dst ->
          (* The ACK frame travels receiver -> sender; draw it that way. *)
          let a, b =
            if label t k = Protocol.L_ack then (col dst, col src)
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
          annotate ("* " ^ name) (col t.nodes.(k) + 1));
      Buffer.add_string buf (Bytes.to_string line);
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  end

let nodes_visited t =
  let acc = ref [] in
  for k = 0 to length t - 1 do
    if entered t k = Protocol.holding && not (List.mem t.nodes.(k) !acc) then
      acc := t.nodes.(k) :: !acc
  done;
  List.rev !acc
