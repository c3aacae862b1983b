(* Property tests on randomly generated packet journeys.

   A journey generator builds a random multihop packet fate (delivered, or
   lost at a random hop with a random cause) and emits exactly the records
   the protocol's logging semantics produce for it.  On complete logs,
   REFILL's classification must recover the cause and position exactly —
   for every journey shape, not just the simulator's mix.  Under record
   loss, verdict positions must still point at nodes the packet really
   visited. *)

open Refill

type terminal =
  | T_delivered
  | T_timeout  (** Last hop's frames never accepted. *)
  | T_received of bool
      (** Died inside the receiving node after recv was logged; [true] =
          at the sink. *)
  | T_acked of bool
      (** Died inside the receiving node before recv was logged (sender
          has the ACK); [true] = at the sink. *)
  | T_overflow  (** Dropped at a full queue on arrival. *)
  | T_dup  (** Looped back to an earlier hop and was dup-dropped. *)

let gen_terminal =
  QCheck.Gen.oneofl
    [
      T_delivered;
      T_timeout;
      T_received false;
      T_received true;
      T_acked false;
      T_acked true;
      T_overflow;
      T_dup;
    ]

(* Nodes: origin = 1, forwarders 2..n, sink = 0. *)
type journey = { hops : int; terminal : terminal }

let gen_journey =
  QCheck.Gen.map2
    (fun hops terminal -> { hops; terminal })
    QCheck.Gen.(int_range 1 5)
    gen_terminal

let record node kind ~gseq : Logsys.Record.t =
  {
    node;
    kind;
    origin = 1;
    pkt_seq = 0;
    true_time = float_of_int gseq;
    gseq;
  }

(* Emit the exact record sequence of a journey, in true order, plus the
   expected verdict (cause, loss position).

   Chain: origin 1 forwards through relays 2..hops (hops-1 clean full
   hops), then the terminal hop happens at sender [hops]: into the sink
   (node 0) for delivered / sink-side terminals, into a further relay
   [hops+1] for in-network terminals, or back to the origin for the dup
   loop. *)
let records_of_journey j =
  let buf = ref [] in
  let gseq = ref 0 in
  let emit node kind =
    buf := record node kind ~gseq:!gseq :: !buf;
    incr gseq
  in
  emit 1 Logsys.Record.Gen;
  let hop sender receiver =
    emit sender (Logsys.Record.Trans { to_ = receiver });
    emit receiver (Logsys.Record.Recv { from = sender });
    emit sender (Logsys.Record.Ack_recvd { to_ = receiver })
  in
  for i = 1 to j.hops - 1 do
    hop i (i + 1)
  done;
  let sender = j.hops in
  let expected =
    match j.terminal with
    | T_delivered ->
        hop sender 0;
        emit 0 Logsys.Record.Deliver;
        (Logsys.Cause.Delivered, None)
    | T_timeout ->
        emit sender (Logsys.Record.Trans { to_ = j.hops + 1 });
        emit sender (Logsys.Record.Retx_timeout { to_ = j.hops + 1 });
        (Logsys.Cause.Timeout_loss, Some sender)
    | T_overflow ->
        let receiver = j.hops + 1 in
        emit sender (Logsys.Record.Trans { to_ = receiver });
        emit receiver (Logsys.Record.Overflow { from = sender });
        emit sender (Logsys.Record.Ack_recvd { to_ = receiver });
        (Logsys.Cause.Overflow_loss, Some receiver)
    | T_received at_sink ->
        let receiver = if at_sink then 0 else j.hops + 1 in
        emit sender (Logsys.Record.Trans { to_ = receiver });
        emit receiver (Logsys.Record.Recv { from = sender });
        emit sender (Logsys.Record.Ack_recvd { to_ = receiver });
        (Logsys.Cause.Received_loss, Some receiver)
    | T_acked at_sink ->
        let receiver = if at_sink then 0 else j.hops + 1 in
        emit sender (Logsys.Record.Trans { to_ = receiver });
        emit sender (Logsys.Record.Ack_recvd { to_ = receiver });
        (Logsys.Cause.Acked_loss, Some receiver)
    | T_dup ->
        (* The last relay forwards BACK to the origin, which dup-drops. *)
        emit sender (Logsys.Record.Trans { to_ = 1 });
        emit 1 (Logsys.Record.Dup { from = sender });
        emit sender (Logsys.Record.Ack_recvd { to_ = 1 });
        (Logsys.Cause.Duplicate_loss, Some 1)
  in
  (List.rev !buf, expected)

(* The dup journey loops back to node 1, which needs at least one real
   forwarder so sender <> 1. *)
let valid j = match j.terminal with T_dup -> j.hops >= 2 | _ -> true

let classify_records records =
  let flow =
    Reconstruct.of_records (Array.of_list records) ~origin:1 ~seq:0 ~sink:0
  in
  (flow, Classify.classify flow)

let journey_arbitrary =
  QCheck.make gen_journey ~print:(fun j ->
      Printf.sprintf "{hops=%d; terminal=%s}" j.hops
        (match j.terminal with
        | T_delivered -> "delivered"
        | T_timeout -> "timeout"
        | T_received true -> "received@sink"
        | T_received false -> "received"
        | T_acked true -> "acked@sink"
        | T_acked false -> "acked"
        | T_overflow -> "overflow"
        | T_dup -> "dup"))

let complete_logs_classify_exactly =
  QCheck.Test.make ~name:"complete logs: cause and position recovered exactly"
    ~count:500 journey_arbitrary (fun j ->
      QCheck.assume (valid j);
      let records, (expected_cause, expected_node) = records_of_journey j in
      let _, verdict = classify_records records in
      Logsys.Cause.equal verdict.cause expected_cause
      && verdict.loss_node = expected_node)

let complete_logs_no_inference_when_delivered =
  QCheck.Test.make ~name:"complete delivered journeys need no inference"
    ~count:200 journey_arbitrary (fun j ->
      QCheck.assume (j.terminal = T_delivered);
      let records, _ = records_of_journey j in
      let flow, _ = classify_records records in
      flow.stats.emitted_inferred = 0 && flow.stats.skipped = 0)

let complete_logs_paths_exact =
  QCheck.Test.make ~name:"complete logs: reconstructed path = visited nodes"
    ~count:300 journey_arbitrary (fun j ->
      QCheck.assume (valid j);
      let records, _ = records_of_journey j in
      let flow, _ = classify_records records in
      (* Nodes that logged gen/recv, in order of first occurrence. *)
      let expected =
        List.fold_left
          (fun acc (r : Logsys.Record.t) ->
            match r.kind with
            | Logsys.Record.Gen | Logsys.Record.Recv _ ->
                if List.mem r.node acc then acc else r.node :: acc
            | _ -> acc)
          [] records
        |> List.rev
      in
      (* Acked terminals extend the path by the inferred receiver: only
         the sender's ACK proves that hop. *)
      let expected =
        match j.terminal with
        | T_acked at_sink ->
            expected @ [ (if at_sink then 0 else j.hops + 1) ]
        | _ -> expected
      in
      Flow.nodes_visited flow = expected)

let lossy_positions_stay_on_route =
  QCheck.Test.make
    ~name:"under record loss, verdict positions lie on the true route"
    ~count:300
    QCheck.(pair journey_arbitrary (pair int64 (float_bound_inclusive 0.6)))
    (fun (j, (seed, loss)) ->
      QCheck.assume (valid j);
      let records, _ = records_of_journey j in
      let rng = Prelude.Rng.create ~seed in
      let surviving =
        List.filter
          (fun _ -> not (Prelude.Rng.bernoulli rng ~p:loss))
          records
      in
      match classify_records surviving with
      | exception _ -> false
      | _, verdict -> (
          match verdict.loss_node with
          | None -> true
          | Some n ->
              (* Any node the journey could have touched: the chain, the
                 terminal relay, the sink, and the dup loop-back target. *)
              n = 0 || (n >= 1 && n <= j.hops + 1)))

let single_surviving_record_never_crashes =
  QCheck.Test.make ~name:"any single surviving record reconstructs cleanly"
    ~count:300
    QCheck.(pair journey_arbitrary small_nat)
    (fun (j, idx) ->
      QCheck.assume (valid j);
      let records, _ = records_of_journey j in
      let n = List.length records in
      let keep = idx mod n in
      let surviving = [ List.nth records keep ] in
      match classify_records surviving with
      | exception _ -> false
      | flow, _ -> Refill.Flow.length flow >= 1)

let () =
  Alcotest.run "journeys"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest complete_logs_classify_exactly;
          QCheck_alcotest.to_alcotest complete_logs_no_inference_when_delivered;
          QCheck_alcotest.to_alcotest complete_logs_paths_exact;
          QCheck_alcotest.to_alcotest lossy_positions_stay_on_route;
          QCheck_alcotest.to_alcotest single_surviving_record_never_crashes;
        ] );
    ]
