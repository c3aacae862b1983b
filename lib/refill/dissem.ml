type label = L_adv | L_rx_adv | L_req | L_rx_req | L_data | L_rx_data | L_done

let label_name = function
  | L_adv -> "adv"
  | L_rx_adv -> "rx_adv"
  | L_req -> "req"
  | L_rx_req -> "rx_req"
  | L_data -> "data"
  | L_rx_data -> "rx_data"
  | L_done -> "done"

type event = { node : int; label : label; peer : int option }

let pp_event ppf e =
  match e.peer with
  | Some p -> Format.fprintf ppf "%s@%d(peer=%d)" (label_name e.label) e.node p
  | None -> Format.fprintf ppf "%s@%d" (label_name e.label) e.node

(* Receiver chain: init -rx_adv-> heard -req-> requested -rx_data-> received
   -done-> done. *)
let r_init = 0
let r_heard = 1
let r_requested = 2
let r_received = 3
let r_done = 4

let receiver_fsm =
  let f = Fsm.create ~n_states:5 ~initial:r_init in
  Fsm.add_transition f ~src:r_init ~dst:r_heard L_rx_adv;
  Fsm.add_transition f ~src:r_heard ~dst:r_requested L_req;
  Fsm.add_transition f ~src:r_requested ~dst:r_received L_rx_data;
  Fsm.add_transition f ~src:r_received ~dst:r_done L_done;
  (* Retries and re-advertisements are self-loops: the protocol repeats
     messages until progress is made. *)
  Fsm.add_transition f ~src:r_heard ~dst:r_heard L_rx_adv;
  Fsm.add_transition f ~src:r_requested ~dst:r_requested L_rx_adv;
  Fsm.add_transition f ~src:r_requested ~dst:r_requested L_req;
  Fsm.add_transition f ~src:r_received ~dst:r_received L_rx_adv;
  Fsm.add_transition f ~src:r_done ~dst:r_done L_rx_adv;
  f

let receiver_state_name = function
  | 0 -> "init"
  | 1 -> "heard"
  | 2 -> "requested"
  | 3 -> "received"
  | 4 -> "done"
  | s -> "state-" ^ string_of_int s

(* Broadcaster chain (per receiver): init -adv-> advertised -rx_req->
   got-request -data-> data-sent. *)
let b_init = 0
let b_advertised = 1
let b_got_request = 2
let b_data_sent = 3

let broadcaster_fsm =
  let f = Fsm.create ~n_states:4 ~initial:b_init in
  Fsm.add_transition f ~src:b_init ~dst:b_advertised L_adv;
  Fsm.add_transition f ~src:b_advertised ~dst:b_got_request L_rx_req;
  Fsm.add_transition f ~src:b_got_request ~dst:b_data_sent L_data;
  (* Periodic re-advertisement and request/data retries. *)
  Fsm.add_transition f ~src:b_advertised ~dst:b_advertised L_adv;
  Fsm.add_transition f ~src:b_got_request ~dst:b_got_request L_adv;
  Fsm.add_transition f ~src:b_got_request ~dst:b_got_request L_rx_req;
  Fsm.add_transition f ~src:b_data_sent ~dst:b_data_sent L_adv;
  Fsm.add_transition f ~src:b_data_sent ~dst:b_got_request L_rx_req;
  f

let broadcaster_state_name = function
  | 0 -> "init"
  | 1 -> "advertised"
  | 2 -> "got-request"
  | 3 -> "data-sent"
  | s -> "state-" ^ string_of_int s

let make_config ~broadcaster ~receiver : (label, event) Engine.config =
  {
    fsm_of =
      (fun node -> if node = broadcaster then broadcaster_fsm else receiver_fsm);
    prerequisites =
      (fun ~node:_ ~label ~payload:_ ->
        (* Each reception implies the corresponding transmission reached the
           required point on the other engine. *)
        match label with
        | L_rx_adv -> [ (broadcaster, b_advertised) ]
        | L_rx_req -> [ (receiver, r_requested) ]
        | L_rx_data -> [ (broadcaster, b_data_sent) ]
        | L_adv | L_req | L_data | L_done -> []);
    infer_payload =
      (fun ~node ~label ->
        let peer =
          match label with
          | L_adv | L_done -> None
          | L_rx_adv | L_req | L_rx_data -> Some broadcaster
          | L_rx_req | L_data -> Some receiver
        in
        Some { node; label; peer });
  }

let pair_events ~broadcaster ~receiver events =
  List.filter
    (fun e ->
      if e.node = receiver then true
      else if e.node = broadcaster then
        match e.peer with None -> true | Some p -> p = receiver
      else false)
    events

let reconstruct ~broadcaster ~receiver ~events =
  let events = pair_events ~broadcaster ~receiver events in
  let engine_events =
    Array.of_list (List.map (fun e -> (e.node, e.label, Some e)) events)
  in
  let acc = ref [] in
  let stats =
    Engine.process
      (make_config ~broadcaster ~receiver)
      (Engine.Events engine_events)
      ~emit:(fun ~node ~label ~payload ~inferred ~entered ->
        acc := { Engine.node; label; payload; inferred; entered } :: !acc)
  in
  (List.rev !acc, stats)

let receiver_progress ~receiver items =
  List.fold_left
    (fun best (i : (label, event) Engine.item) ->
      if i.node = receiver && i.entered > best then i.entered else best)
    r_init items

let analyze_round ~broadcaster ~events =
  let receivers =
    List.filter_map
      (fun e -> if e.node <> broadcaster then Some e.node else None)
      events
    |> List.sort_uniq Int.compare
  in
  List.map
    (fun receiver ->
      let items, _ = reconstruct ~broadcaster ~receiver ~events in
      (receiver, receiver_progress ~receiver items))
    receivers

let analyze_epidemic ~seed ~events =
  (* Receivers: every node with receiver-side records. *)
  let receiver_side (e : event) =
    match e.label with
    | L_rx_adv | L_req | L_rx_data | L_done -> true
    | L_adv | L_rx_req | L_data -> false
  in
  let receivers =
    List.filter_map
      (fun e -> if receiver_side e && e.node <> seed then Some e.node else None)
      events
    |> List.sort_uniq Int.compare
  in
  (* Candidate sources of [r]: peers of r's own records, plus any node whose
     broadcaster-side records name r. *)
  let sources_of r =
    let from_own =
      List.filter_map
        (fun e -> if e.node = r && receiver_side e then e.peer else None)
        events
    in
    let from_servers =
      List.filter_map
        (fun e ->
          match e.label with
          | (L_rx_req | L_data) when e.peer = Some r -> Some e.node
          | _ -> None)
        events
    in
    List.sort_uniq Int.compare (from_own @ from_servers)
    |> List.filter (fun s -> s <> r)
  in
  List.map
    (fun r ->
      let progress =
        List.fold_left
          (fun best s ->
            let items, _ = reconstruct ~broadcaster:s ~receiver:r ~events in
            max best (receiver_progress ~receiver:r items))
          r_init (sources_of r)
      in
      (r, progress))
    receivers

(* -- Synthetic workload ---------------------------------------------------- *)

type outcome = { events : event list; completed : (int * bool) list }

let generate rng ~broadcaster ~receivers ~message_loss ~record_loss =
  (* The broadcaster writes one adv record for the round; each receiver's
     exchange then proceeds message by message, truncating at the first
     lost message. *)
  let lost () = Prelude.Rng.bernoulli rng ~p:message_loss in
  let b_log = ref [ { node = broadcaster; label = L_adv; peer = None } ] in
  let receiver_logs_and_fate =
    List.map
      (fun r ->
        let log = ref [] in
        let completed =
          if lost () then false (* advert never heard *)
          else begin
            log := { node = r; label = L_rx_adv; peer = Some broadcaster } :: !log;
            log := { node = r; label = L_req; peer = Some broadcaster } :: !log;
            if lost () then false (* request lost in the air *)
            else begin
              b_log :=
                { node = broadcaster; label = L_rx_req; peer = Some r }
                :: !b_log;
              b_log :=
                { node = broadcaster; label = L_data; peer = Some r } :: !b_log;
              if lost () then false (* data lost in the air *)
              else begin
                log :=
                  { node = r; label = L_rx_data; peer = Some broadcaster }
                  :: !log;
                log := { node = r; label = L_done; peer = None } :: !log;
                true
              end
            end
          end
        in
        (r, List.rev !log, completed))
      receivers
  in
  let all_written =
    List.rev !b_log
    @ List.concat_map (fun (_, log, _) -> log) receiver_logs_and_fate
  in
  let surviving =
    List.filter
      (fun _ -> not (Prelude.Rng.bernoulli rng ~p:record_loss))
      all_written
  in
  {
    events = surviving;
    completed = List.map (fun (r, _, c) -> (r, c)) receiver_logs_and_fate;
  }
