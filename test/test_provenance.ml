(* Provenance side-car: lossless attribution, evidence-index integrity,
   batch/stream equivalence, and the merge's 1:1 provenance emission. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let lossless = lazy (Scenario.Citysee.collected (Lazy.force scenario))

let sink () = (Lazy.force scenario).sink

let lossy_collected p seed =
  let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
  Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
    (Lazy.force lossless)

let flows_of ?(provenance = true) collected =
  let acc = ref [] in
  Refill.Reconstruct.run
    ~config:{ Refill.Config.default with provenance; jobs = Some 1 }
    collected ~sink:(sink ())
    ~emit:(fun f -> acc := f :: !acc);
  List.rev !acc

(* -- Lossless trace: everything is measurement, nothing is inference ------
   Scoped to *delivered* packets: packets still in flight (or with an
   acked final hop) when collection stopped legitimately end in inferred
   events even on a complete trace — see
   [lossless_delivered_flows_have_no_inference] in test_refill_pipeline. *)

let truth = lazy (Node.Network.truth (Lazy.force scenario).network)

let delivered (f : Refill.Flow.t) =
  match
    Logsys.Truth.find (Lazy.force truth) ~origin:f.origin ~seq:f.seq
  with
  | Some { cause = Logsys.Cause.Delivered; _ } -> true
  | Some _ | None -> false

let lossless_all_logged () =
  let collected = Lazy.force lossless in
  let flows = flows_of collected in
  let scored = ref 0 in
  List.iter
    (fun (f : Refill.Flow.t) ->
      Alcotest.(check int)
        (Printf.sprintf "packet (%d,%d): one provenance entry per item"
           f.origin f.seq)
        (Refill.Flow.length f)
        (Array.length f.prov);
      if delivered f then begin
        incr scored;
        Array.iter
          (fun pv ->
            Alcotest.(check string) "mechanism" "logged"
              (Refill.Provenance.mechanism_name
                 (Refill.Provenance.mechanism pv));
            Alcotest.(check string) "confidence" "certain"
              (Refill.Provenance.confidence_name
                 (Refill.Provenance.confidence pv)))
          f.prov
      end)
    flows;
  Alcotest.(check bool) "scored a real population" true (!scored > 100)

(* -- Evidence indices resolve into the packet's own record array ---------- *)

let check_evidence collected (f : Refill.Flow.t) =
  let records =
    Logsys.Collected.packet_records collected ~origin:f.origin ~seq:f.seq
  in
  let n = Array.length records in
  List.iteri
    (fun k (it : Refill.Flow.item) ->
      let pv = f.prov.(k) in
      let ev = Refill.Provenance.evidence pv in
      Array.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "evidence %d within %d records" e n)
            true
            (e >= 0 && e < n))
        ev;
      if not it.inferred then begin
        (* A logged event's single evidence index is its own record. *)
        Alcotest.(check int) "logged evidence is a single record" 1
          (Array.length ev);
        match it.payload with
        | None -> Alcotest.fail "logged item without payload"
        | Some r ->
            Alcotest.(check bool) "evidence resolves to the item's record"
              true
              (r = records.(ev.(0)))
      end
      else
        Alcotest.(check bool) "inferred event cites evidence" true
          (Array.length ev >= 1))
    (Refill.Flow.items f)

let lossy_evidence_in_bounds () =
  let collected = lossy_collected 0.25 11 in
  let flows = flows_of collected in
  let inferred =
    List.fold_left
      (fun acc (f : Refill.Flow.t) -> acc + f.stats.emitted_inferred)
      0 flows
  in
  Alcotest.(check bool) "the lossy run actually inferred something" true
    (inferred > 0);
  List.iter (check_evidence collected) flows

let provenance_off_is_empty () =
  let flows = flows_of ~provenance:false (lossy_collected 0.25 11) in
  List.iter
    (fun (f : Refill.Flow.t) ->
      Alcotest.(check int) "no side-car when off" 0 (Array.length f.prov))
    flows

(* -- Batch and streaming runs produce identical provenance ---------------- *)

let stream_flows collected =
  let ordered = Logsys.Collected.merged_by_time collected in
  let total = Array.length ordered in
  let acc = ref [] in
  let config =
    {
      Refill.Config.default with
      provenance = true;
      watermark = max 1 (total / 20);
    }
  in
  let t =
    Refill.Stream.create ~config ~sink:(sink ())
      ~emit:(fun (e : Refill.Stream.emitted) -> acc := e.flow :: !acc)
      ()
  in
  let chunk = 97 in
  let i = ref 0 in
  while !i < total do
    let len = min chunk (total - !i) in
    Refill.Stream.feed t (Array.sub ordered !i len);
    i := !i + len
  done;
  ignore (Refill.Stream.finish t);
  List.rev !acc

let sort_flows l =
  List.stable_sort
    (fun (a : Refill.Flow.t) (b : Refill.Flow.t) ->
      compare (a.origin, a.seq) (b.origin, b.seq))
    l

let prov_sig (f : Refill.Flow.t) =
  ( f.origin,
    f.seq,
    Array.to_list
      (Array.map (fun pv -> Refill.Provenance.to_string pv) f.prov) )

let batch_equals_stream_prov =
  QCheck.Test.make ~count:20 ~name:"batch and stream provenance identical"
    QCheck.(pair (float_range 0.0 0.4) small_int)
    (fun (p, seed) ->
      let collected = lossy_collected p seed in
      let batch = List.map prov_sig (sort_flows (flows_of collected)) in
      let streamed = List.map prov_sig (sort_flows (stream_flows collected)) in
      batch = streamed)

(* -- The merge emits provenance in lockstep with items -------------------- *)

let merge_prov_lockstep () =
  let collected = lossy_collected 0.25 11 in
  let flows = Array.of_list (flows_of collected) in
  let items = ref 0 and provs = ref 0 in
  ignore
    (Refill.Global_flow.merge collected ~flows
       ~emit_prov:(fun _ -> incr provs)
       ~emit:(fun _ -> incr items));
  Alcotest.(check bool) "merge emitted items" true (!items > 0);
  Alcotest.(check int) "one provenance per merged item" !items !provs

let merge_lossless_no_reclassification () =
  (* On a complete trace every record aligns with its node's log, so the
     merge must introduce no stall-recovery or anchor-carry entries. *)
  let collected = Lazy.force lossless in
  let flows = Array.of_list (flows_of collected) in
  let bad = ref 0 in
  ignore
    (Refill.Global_flow.merge collected ~flows
       ~emit_prov:(fun pv ->
         match Refill.Provenance.mechanism pv with
         | Refill.Provenance.Stall_recovery | Refill.Provenance.Anchor_carry
           ->
             incr bad
         | _ -> ())
       ~emit:ignore);
  Alcotest.(check int) "no stall/anchor on an aligned trace" 0 !bad

let () =
  Alcotest.run "refill-provenance"
    [
      ( "attribution",
        [
          Alcotest.test_case "lossless flows are 100% logged/certain" `Quick
            lossless_all_logged;
          Alcotest.test_case "lossy evidence indices resolve" `Quick
            lossy_evidence_in_bounds;
          Alcotest.test_case "provenance off keeps the side-car empty" `Quick
            provenance_off_is_empty;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest batch_equals_stream_prov ] );
      ( "merge",
        [
          Alcotest.test_case "emit_prov is 1:1 with emit" `Quick
            merge_prov_lockstep;
          Alcotest.test_case "lossless merge adds no stall/anchor" `Quick
            merge_lossless_no_reclassification;
        ] );
    ]
