type item = (Protocol.label, Logsys.Record.t) Engine.item

type t = {
  origin : int;
  seq : int;
  items : item list;
  stats : Engine.stats;
  prov : Provenance.t array;
}

let packet_key t = (t.origin, t.seq)

let logged_items t = List.filter (fun (i : item) -> not i.inferred) t.items

let inferred_items t = List.filter (fun (i : item) -> i.inferred) t.items

let length t = List.length t.items

let add_node b n =
  if n = Protocol.unknown_node then Buffer.add_char b '?'
  else Prelude.Decimal.add_int b n

let add_item b (i : item) =
  if i.inferred then Buffer.add_char b '[';
  (match Option.bind i.payload Logsys.Record.link with
  | Some (s, d) ->
      add_node b s;
      Buffer.add_char b '-';
      add_node b d;
      Buffer.add_char b ' ';
      Buffer.add_string b (Protocol.label_name i.label)
  | None ->
      Buffer.add_string b (Protocol.label_name i.label);
      Buffer.add_char b '@';
      add_node b i.node);
  if i.inferred then Buffer.add_char b ']'

let add_to_buffer b t =
  List.iteri
    (fun k i ->
      if k > 0 then Buffer.add_string b ", ";
      add_item b i)
    t.items

let render add x ~size =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let item_to_string = render add_item ~size:24

let to_string t = render add_to_buffer t ~size:(24 * List.length t.items)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let last_item t =
  match List.rev t.items with [] -> None | last :: _ -> Some last

let participants t =
  (* Hop order first, then any remaining nodes that only appear in events. *)
  let in_order = ref [] in
  let add n =
    if n >= 0 && not (List.mem n !in_order) then in_order := n :: !in_order
  in
  List.iter
    (fun (i : item) ->
      if i.entered = Protocol.holding then add i.node)
    t.items;
  List.iter
    (fun (i : item) ->
      add i.node;
      match i.payload with
      | Some r -> (
          match Logsys.Record.peer r with Some p -> add p | None -> ())
      | None -> ())
    t.items;
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
      t.items;
    Buffer.contents buf
  end

let nodes_visited t =
  List.fold_left
    (fun acc (i : item) ->
      if i.entered = Protocol.holding && not (List.mem i.node acc) then
        i.node :: acc
      else acc)
    [] t.items
  |> List.rev
