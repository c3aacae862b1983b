type t = { dropped : string list }

let kind_names =
  List.init 8 (fun tag -> Record.kind_name (Codec.kind_of_tag tag (Some 0)))

let check name =
  if not (List.mem name kind_names) then
    invalid_arg (Printf.sprintf "Logging_policy: unknown event kind %S" name)

let all = { dropped = [] }

let without names =
  List.iter check names;
  { dropped = List.sort_uniq String.compare names }

let only names =
  List.iter check names;
  {
    dropped =
      List.filter (fun k -> not (List.mem k names)) kind_names;
  }

let records_kind t name =
  check name;
  not (List.mem name t.dropped)

let logs t kind = not (List.mem (Record.kind_name kind) t.dropped)

let apply t collected =
  if t.dropped = [] then collected
  else begin
    let n = Collected.n_nodes collected in
    let node_logs =
      Array.init n (fun node ->
          Collected.node_log collected node
          |> Array.to_list
          |> List.filter (fun (r : Record.t) -> logs t r.kind)
          |> Array.of_list)
    in
    Collected.of_node_logs node_logs
  end

let describe t =
  match t.dropped with
  | [] -> "all"
  | dropped -> "without " ^ String.concat ", " dropped
