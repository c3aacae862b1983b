type neighbor = {
  estimator : Estimator.t;
  mutable advertised_etx : float;
}

type t = {
  self : Net.Packet.node_id;
  is_sink : bool;
  hysteresis : float;
  estimator_alpha : float;
  table : (Net.Packet.node_id, neighbor) Hashtbl.t;
  mutable parent : Net.Packet.node_id option;
}

let create ~self ~is_sink ?(hysteresis = 0.75) ?(estimator_alpha = 0.9) () =
  {
    self;
    is_sink;
    hysteresis;
    estimator_alpha;
    table = Hashtbl.create 16;
    parent = None;
  }

let self t = t.self

let is_sink t = t.is_sink

let parent t = if t.is_sink then None else t.parent

let cost_via neighbor =
  neighbor.advertised_etx +. Estimator.etx neighbor.estimator

let path_etx t =
  if t.is_sink then 0.
  else
    match t.parent with
    | None -> infinity
    | Some p -> (
        match Hashtbl.find_opt t.table p with
        | None -> infinity
        | Some nb -> cost_via nb)

let has_route t = t.is_sink || t.parent <> None

let best_candidate t =
  Hashtbl.fold
    (fun id nb best ->
      (* A neighbor with no usable advertised cost cannot be a parent. *)
      if nb.advertised_etx = infinity then best
      else begin
        let c = cost_via nb in
        match best with
        | Some (_, best_c) when best_c <= c -> best
        | _ -> Some (id, c)
      end)
    t.table None

let reselect_parent t =
  if not t.is_sink then begin
    match best_candidate t with
    | None -> t.parent <- None
    | Some (best, best_cost) -> (
        match t.parent with
        | None -> t.parent <- Some best
        | Some current when current = best -> ()
        | Some current -> (
            match Hashtbl.find_opt t.table current with
            | None -> t.parent <- Some best
            | Some nb ->
                let current_cost = cost_via nb in
                if
                  current_cost = infinity
                  || best_cost +. t.hysteresis < current_cost
                then t.parent <- Some best))
  end

let find_or_add t from =
  match Hashtbl.find_opt t.table from with
  | Some nb -> nb
  | None ->
      let nb =
        {
          estimator = Estimator.create ~alpha:t.estimator_alpha ();
          advertised_etx = infinity;
        }
      in
      Hashtbl.add t.table from nb;
      nb

let on_beacon_received t ~from ~advertised_etx =
  if from <> t.self then begin
    let nb = find_or_add t from in
    Estimator.observe nb.estimator ~received:true;
    nb.advertised_etx <- advertised_etx;
    reselect_parent t
  end

let on_beacon_missed t ~from =
  match Hashtbl.find_opt t.table from with
  | None -> ()
  | Some nb ->
      Estimator.observe nb.estimator ~received:false;
      reselect_parent t

let on_data_tx_outcome t ~to_ ~acked =
  match Hashtbl.find_opt t.table to_ with
  | None -> ()
  | Some nb ->
      Estimator.observe nb.estimator ~received:acked;
      reselect_parent t

let neighbor_count t = Hashtbl.length t.table

let link_etx t id =
  Option.map (fun nb -> Estimator.etx nb.estimator) (Hashtbl.find_opt t.table id)

let reset t =
  Hashtbl.reset t.table;
  t.parent <- None
