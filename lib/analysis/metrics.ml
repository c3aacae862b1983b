type confusion = {
  labels : Logsys.Cause.t list;
  matrix : int array array;
  total : int;
  agree : int;
}

let cause_index =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i c -> Hashtbl.add tbl c i) Logsys.Cause.all;
  fun c -> Hashtbl.find tbl c

let confusion ~truth ~verdicts =
  let n = List.length Logsys.Cause.all in
  let matrix = Array.make_matrix n n 0 in
  let total = ref 0 and agree = ref 0 in
  List.iter
    (fun ((origin, seq), predicted) ->
      match Logsys.Truth.find truth ~origin ~seq with
      | None -> ()
      | Some fate ->
          incr total;
          if Logsys.Cause.equal fate.cause predicted then incr agree;
          let i = cause_index fate.cause and j = cause_index predicted in
          matrix.(i).(j) <- matrix.(i).(j) + 1)
    verdicts;
  { labels = Logsys.Cause.all; matrix; total = !total; agree = !agree }

let accuracy c = Prelude.Stats.ratio c.agree c.total

let per_cause c =
  List.mapi
    (fun i cause ->
      let support = Array.fold_left ( + ) 0 c.matrix.(i) in
      let predicted =
        List.fold_left (fun acc row -> acc + row.(i)) 0
          (Array.to_list c.matrix)
      in
      let tp = c.matrix.(i).(i) in
      (cause, Prelude.Stats.ratio tp predicted, Prelude.Stats.ratio tp support,
       support))
    c.labels
  |> List.filter (fun (cause, _, _, support) ->
         support > 0
         ||
         let j = cause_index cause in
         List.exists (fun row -> row.(j) > 0) (Array.to_list c.matrix))

let position_accuracy ~truth ~positions =
  let lost = ref 0 and correct = ref 0 in
  List.iter
    (fun ((origin, seq), predicted) ->
      match Logsys.Truth.find truth ~origin ~seq with
      | Some fate when Logsys.Cause.is_loss fate.cause ->
          incr lost;
          if predicted = fate.loss_node && predicted <> None then incr correct
      | Some _ | None -> ())
    positions;
  Prelude.Stats.ratio !correct !lost

type flow_quality = {
  event_recall : float;
  event_precision : float;
  order_agreement : float;
}

(* Match key: node, kind name, peer (None = wildcard). *)
let key_of_record (r : Logsys.Record.t) =
  (r.node, Logsys.Record.kind_name r.kind, Logsys.Record.peer r)

let matches (n1, k1, p1) (n2, k2, p2) =
  n1 = n2 && String.equal k1 k2
  && (match (p1, p2) with
     | Some a, Some b -> a = b || a = -1 || b = -1
     | _ -> true)

(* Greedy bipartite matching of reconstructed events to true events,
   preserving order on both sides (events are sequences, not sets). *)
let match_sequences recon_keys true_keys =
  let used = Array.make (List.length true_keys) false in
  let true_arr = Array.of_list true_keys in
  let pairs = ref [] in
  List.iteri
    (fun ri rk ->
      let found = ref false in
      Array.iteri
        (fun ti tk ->
          if (not !found) && (not used.(ti)) && matches rk tk then begin
            used.(ti) <- true;
            found := true;
            pairs := (ri, ti) :: !pairs
          end)
        true_arr;
      ignore ri)
    recon_keys;
  List.rev !pairs

type path_quality = { exact : float; prefix_similarity : float }

let path_quality ~truth ~flows =
  let exact = ref 0 and n = ref 0 and sims = ref [] in
  List.iter
    (fun (f : Refill.Flow.t) ->
      match Logsys.Truth.find truth ~origin:f.origin ~seq:f.seq with
      | None -> ()
      | Some fate ->
          incr n;
          let reconstructed = Refill.Flow.nodes_visited f in
          let rec common_prefix a b =
            match (a, b) with
            | x :: xs, y :: ys when x = y -> 1 + common_prefix xs ys
            | _ -> 0
          in
          let cp = common_prefix reconstructed fate.path in
          let len_r = List.length reconstructed
          and len_t = List.length fate.path in
          (* An extra reconstructed final hop proven only by the sender's
             ACK (the receiver logged nothing) extends the true path by
             one: still a faithful reconstruction. *)
          let is_exact =
            reconstructed = fate.path || (cp = len_t && len_r = len_t + 1)
          in
          if is_exact then incr exact;
          sims :=
            (if is_exact then 1.
             else Prelude.Stats.ratio cp (max len_r len_t))
            :: !sims)
    flows;
  {
    exact = Prelude.Stats.ratio !exact !n;
    prefix_similarity =
      (match !sims with
      | [] -> 0.
      | l -> Prelude.Stats.mean (Array.of_list l));
  }

let flow_quality ~ground_truth ~flows =
  (* Per-packet true record sequences (chronological). *)
  let truth_by_packet = Hashtbl.create 1024 in
  List.iter
    (fun (r : Logsys.Record.t) ->
      let key = Logsys.Record.packet_key r in
      let l = Option.value ~default:[] (Hashtbl.find_opt truth_by_packet key) in
      Hashtbl.replace truth_by_packet key (r :: l))
    (List.rev ground_truth);
  let recalls = ref [] and precisions = ref [] and orders = ref [] in
  List.iter
    (fun (f : Refill.Flow.t) ->
      match Hashtbl.find_opt truth_by_packet (f.origin, f.seq) with
      | None -> ()
      | Some true_records ->
          let true_keys = List.map key_of_record true_records in
          let recon_keys =
            List.filter_map
              (fun (i : Refill.Flow.item) ->
                Option.map key_of_record i.payload)
              (Refill.Flow.items f)
          in
          let pairs = match_sequences recon_keys true_keys in
          let matched = List.length pairs in
          recalls :=
            Prelude.Stats.ratio matched (List.length true_keys) :: !recalls;
          precisions :=
            Prelude.Stats.ratio matched (List.length recon_keys)
            :: !precisions;
          if matched >= 2 then begin
            (* Pair order agreement: for matched events, does reconstructed
               order match true order? *)
            let arr = Array.of_list pairs in
            let total = ref 0 and good = ref 0 in
            Array.iteri
              (fun a (ra, ta) ->
                Array.iteri
                  (fun b (rb, tb) ->
                    if a < b then begin
                      incr total;
                      if compare (ra < rb) (ta < tb) = 0 then incr good
                    end)
                  arr)
              arr;
            orders := Prelude.Stats.ratio !good !total :: !orders
          end)
    flows;
  let avg l =
    match l with [] -> 0. | _ -> Prelude.Stats.mean (Array.of_list l)
  in
  {
    event_recall = avg !recalls;
    event_precision = avg !precisions;
    order_agreement = avg !orders;
  }
