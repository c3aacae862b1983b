(* Tests for log serialization (Log_io), logging policies, and the in-band
   log transport. *)

let record node kind ~origin ~seq ~time ~gseq : Logsys.Record.t =
  { node; kind; origin; pkt_seq = seq; true_time = time; gseq }

(* -- Log_io ----------------------------------------------------------------- *)

let roundtrip_records () =
  let records : Logsys.Record.t list =
    [
      record 1 Gen ~origin:1 ~seq:0 ~time:0.5 ~gseq:0;
      record 1 (Trans { to_ = 2 }) ~origin:1 ~seq:0 ~time:1.25 ~gseq:1;
      record 2 (Recv { from = 1 }) ~origin:1 ~seq:0 ~time:1.5 ~gseq:2;
      record 2 (Dup { from = 1 }) ~origin:1 ~seq:0 ~time:2. ~gseq:3;
      record 2 (Overflow { from = 1 }) ~origin:1 ~seq:0 ~time:2.5 ~gseq:4;
      record 1 (Ack_recvd { to_ = 2 }) ~origin:1 ~seq:0 ~time:3. ~gseq:5;
      record 1 (Retx_timeout { to_ = 2 }) ~origin:1 ~seq:0 ~time:4. ~gseq:6;
      record 0 Deliver ~origin:1 ~seq:0 ~time:5. ~gseq:7;
    ]
  in
  List.iter
    (fun r ->
      let line = Logsys.Log_io.record_to_line r in
      let back = Logsys.Log_io.record_of_line line in
      Alcotest.(check string) "kind survives"
        (Logsys.Record.kind_name r.kind)
        (Logsys.Record.kind_name back.kind);
      Alcotest.(check bool) "record roundtrips" true (back = r))
    records

let record_of_line_rejects_garbage () =
  Alcotest.(check bool) "bad line raises" true
    (match Logsys.Log_io.record_of_line "nonsense" with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad kind raises" true
    (match Logsys.Log_io.record_of_line "r 1 teleport - 1 0 0.0 0" with
    | exception Failure _ -> true
    | _ -> false)

(* A dump read back through the one reader: its reader (header, truth)
   and every record in one arena. *)
let read_dump path =
  let r = Logsys.Log_io.Mseg.open_file path in
  let a = Logsys.Arena.create () in
  ignore (Logsys.Log_io.Mseg.next_into r a ~max_records:max_int : int);
  (r, a)

let roundtrip_dump () =
  let logger = Logsys.Logger.create ~n_nodes:3 in
  Logsys.Logger.log logger (record 1 Gen ~origin:1 ~seq:0 ~time:0. ~gseq:0);
  Logsys.Logger.log logger
    (record 1 (Trans { to_ = 0 }) ~origin:1 ~seq:0 ~time:1. ~gseq:1);
  Logsys.Logger.log logger
    (record 0 (Recv { from = 1 }) ~origin:1 ~seq:0 ~time:2. ~gseq:2);
  let collected = Logsys.Collected.of_logger logger in
  let truth = Logsys.Truth.create () in
  Logsys.Truth.record truth ~origin:1 ~seq:0
    {
      cause = Logsys.Cause.Received_loss;
      loss_node = Some 0;
      path = [ 1; 0 ];
      generated_at = 0.;
      resolved_at = 2.;
    };
  let path = Filename.temp_file "refill" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Logsys.Log_io.save_file path ~sink:0 ~truth collected;
      let r, a = read_dump path in
      Alcotest.(check int) "nodes" 3 (Logsys.Log_io.Mseg.n_nodes r);
      Alcotest.(check int) "sink" 0 (Logsys.Log_io.Mseg.sink r);
      Alcotest.(check int) "records" 3 (Logsys.Arena.length a);
      (* Per-node order preserved. *)
      let p = Logsys.Arena.Packets.build a ~n_nodes:3 in
      Alcotest.(check (list string)) "node 1 order" [ "gen"; "trans" ]
        (Array.to_list (Logsys.Arena.Packets.node_rows p 1)
        |> List.map (fun i ->
               Logsys.Record.kind_name (Logsys.Arena.get a i).kind));
      match Logsys.Log_io.Mseg.truth r with
      | None -> Alcotest.fail "truth expected"
      | Some t -> (
          Alcotest.(check int) "one fate" 1 (Logsys.Truth.count t);
          match Logsys.Truth.find t ~origin:1 ~seq:0 with
          | Some fate ->
              Alcotest.(check string) "cause" "received"
                (Logsys.Cause.name fate.cause);
              Alcotest.(check (option int)) "loss node" (Some 0) fate.loss_node;
              Alcotest.(check (list int)) "path" [ 1; 0 ] fate.path
          | None -> Alcotest.fail "fate missing"))

let dump_without_truth () =
  let logger = Logsys.Logger.create ~n_nodes:2 in
  Logsys.Logger.log logger (record 1 Gen ~origin:1 ~seq:0 ~time:0. ~gseq:0);
  let path = Filename.temp_file "refill" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Logsys.Log_io.save_file path ~sink:0 (Logsys.Collected.of_logger logger);
      let r, _ = read_dump path in
      Alcotest.(check bool) "no truth" true
        (Logsys.Log_io.Mseg.truth r = None))

let load_rejects_bad_header () =
  let path = Filename.temp_file "refill" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a dump\n";
      close_out oc;
      Alcotest.(check bool) "raises" true
        (match read_dump path with
        | exception Failure _ -> true
        | _ -> false))

let full_pipeline_through_file () =
  (* simulate → save → read → reconstruct gives identical verdicts. *)
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let collected = Scenario.Citysee.collected scenario in
  let verdicts run =
    (let acc = ref [] in
     run ~sink:scenario.sink ~emit:(fun f -> acc := f :: !acc);
     List.rev !acc)
    |> List.map (fun (f : Refill.Flow.t) ->
           ((f.origin, f.seq), (Refill.Classify.classify f).cause))
  in
  let path = Filename.temp_file "refill" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Logsys.Log_io.save_file path ~sink:scenario.sink collected;
      let r, a = read_dump path in
      let packets =
        Logsys.Arena.Packets.build a ~n_nodes:(Logsys.Log_io.Mseg.n_nodes r)
      in
      Alcotest.(check bool) "verdicts identical" true
        (verdicts (Refill.Reconstruct.run collected)
        = verdicts (Refill.Reconstruct.run_arena packets)))

(* -- Codec ------------------------------------------------------------------ *)

let codec_roundtrip_all_kinds () =
  let records : Logsys.Record.t list =
    [
      record 3 Gen ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 3 (Trans { to_ = 12 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 12 (Recv { from = 3 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 12 (Dup { from = 3 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 12 (Overflow { from = 3 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 3 (Ack_recvd { to_ = 12 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 3 (Retx_timeout { to_ = 12 }) ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      record 0 Deliver ~origin:3 ~seq:0 ~time:0. ~gseq:0;
      (* The unknown-peer sentinel must survive (zig-zag). *)
      record 5 (Recv { from = -1 }) ~origin:5 ~seq:9 ~time:0. ~gseq:0;
    ]
  in
  List.iter
    (fun (r : Logsys.Record.t) ->
      let b = Logsys.Codec.encode_log [| r |] in
      let back = Logsys.Codec.decode_log ~node:r.node b in
      Alcotest.(check int) "one record" 1 (Array.length back);
      Alcotest.(check string) "kind" (Logsys.Record.kind_name r.kind)
        (Logsys.Record.kind_name back.(0).kind);
      Alcotest.(check (option int)) "peer" (Logsys.Record.peer r)
        (Logsys.Record.peer back.(0));
      Alcotest.(check (pair int int)) "packet key"
        (Logsys.Record.packet_key r)
        (Logsys.Record.packet_key back.(0)))
    records

let codec_sizes_small () =
  let r = record 3 (Trans { to_ = 12 }) ~origin:3 ~seq:7 ~time:0. ~gseq:0 in
  let size = Logsys.Codec.encoded_size r in
  Alcotest.(check bool) "4 bytes for a small record" true (size <= 4);
  let b = Logsys.Codec.encode_log [| r |] in
  Alcotest.(check int) "size matches encoding" size (Bytes.length b);
  (* Large sequence numbers grow gracefully. *)
  let big = record 3 (Trans { to_ = 12 }) ~origin:3 ~seq:100_000 ~time:0. ~gseq:0 in
  Alcotest.(check bool) "varint growth" true
    (Logsys.Codec.encoded_size big <= 7)

let codec_rejects_garbage () =
  Alcotest.(check bool) "truncated" true
    (match Logsys.Codec.decode_log ~node:0 (Bytes.of_string "\x04") with
    | exception Failure _ -> true
    | _ -> false)

let codec_log_roundtrip_property =
  QCheck.Test.make ~name:"codec roundtrips whole logs" ~count:100
    QCheck.(
      small_list
        (quad (int_range 0 7) (int_range 0 1000) (int_range 0 1000)
           (int_range 0 100000)))
    (fun raw ->
      let log =
        raw
        |> List.map (fun (tag, peer, origin, seq) ->
               let kind : Logsys.Record.kind =
                 match tag with
                 | 0 -> Gen
                 | 1 -> Recv { from = peer }
                 | 2 -> Dup { from = peer }
                 | 3 -> Overflow { from = peer }
                 | 4 -> Trans { to_ = peer }
                 | 5 -> Ack_recvd { to_ = peer }
                 | 6 -> Retx_timeout { to_ = peer }
                 | _ -> Deliver
               in
               record 9 kind ~origin ~seq ~time:0. ~gseq:0)
        |> Array.of_list
      in
      let back = Logsys.Codec.decode_log ~node:9 (Logsys.Codec.encode_log log) in
      Array.length back = Array.length log
      && Array.for_all2
           (fun (a : Logsys.Record.t) (b : Logsys.Record.t) ->
             a.kind = b.kind && a.origin = b.origin && a.pkt_seq = b.pkt_seq)
           log back)

let codec_truncation_property =
  (* Cutting an encoded log at any byte boundary must either fail cleanly
     or decode to an exact prefix of the original — never garbage records
     or a crash other than [Failure]. *)
  QCheck.Test.make ~name:"codec truncation yields prefix or Failure" ~count:200
    QCheck.(
      pair
        (small_list
           (quad (int_range 0 7) (int_range 0 1000) (int_range 0 1000)
              (int_range 0 100000)))
        small_nat)
    (fun (raw, cut) ->
      let log =
        raw
        |> List.map (fun (tag, peer, origin, seq) ->
               let kind : Logsys.Record.kind =
                 match tag with
                 | 0 -> Gen
                 | 1 -> Recv { from = peer }
                 | 2 -> Dup { from = peer }
                 | 3 -> Overflow { from = peer }
                 | 4 -> Trans { to_ = peer }
                 | 5 -> Ack_recvd { to_ = peer }
                 | 6 -> Retx_timeout { to_ = peer }
                 | _ -> Deliver
               in
               record 9 kind ~origin ~seq ~time:0. ~gseq:0)
        |> Array.of_list
      in
      let b = Logsys.Codec.encode_log log in
      let cut = min cut (Bytes.length b) in
      match Logsys.Codec.decode_log ~node:9 (Bytes.sub b 0 cut) with
      | exception Failure _ -> true
      | back ->
          Array.length back <= Array.length log
          && Array.for_all2
               (fun (a : Logsys.Record.t) (b : Logsys.Record.t) ->
                 a.kind = b.kind && a.origin = b.origin
                 && a.pkt_seq = b.pkt_seq)
               (Array.sub log 0 (Array.length back))
               back)

let codec_rejects_oversized_varint () =
  (* Tag 0 (gen) followed by a varint with ten continuation groups — more
     than a 63-bit int can hold.  Must fail, not silently wrap. *)
  let b = Bytes.of_string "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" in
  Alcotest.(check bool) "overflow rejected" true
    (match Logsys.Codec.decode_log ~node:0 b with
    | exception Failure _ -> true
    | _ -> false);
  (* Nine groups (shift 56) still fit and must decode. *)
  let buf = Buffer.create 16 in
  let r = record 3 Gen ~origin:0 ~seq:(1 lsl 60) ~time:0. ~gseq:0 in
  Logsys.Codec.encode_record buf r;
  let back =
    Logsys.Codec.decode_log ~node:3 (Bytes.of_string (Buffer.contents buf))
  in
  Alcotest.(check int) "large seq survives" (1 lsl 60) back.(0).pkt_seq

let codec_real_logs_compact () =
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let logger = Node.Network.logger scenario.network in
  let total_records = Logsys.Logger.total logger in
  let total_bytes = ref 0 in
  for node = 0 to Logsys.Logger.n_nodes logger - 1 do
    total_bytes := !total_bytes + Logsys.Codec.log_size (Logsys.Logger.node_log logger node)
  done;
  let per_record = float_of_int !total_bytes /. float_of_int total_records in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f bytes/record <= 5" per_record)
    true (per_record <= 5.)

(* -- Logging policy ------------------------------------------------------------ *)

let policy_all_is_identity () =
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  let collected = Scenario.Citysee.collected scenario in
  let filtered = Logsys.Logging_policy.apply Logsys.Logging_policy.all collected in
  Alcotest.(check int) "same size" (Logsys.Collected.total collected)
    (Logsys.Collected.total filtered)

let policy_without_removes_kind () =
  let logger = Logsys.Logger.create ~n_nodes:2 in
  Logsys.Logger.log logger (record 1 Gen ~origin:1 ~seq:0 ~time:0. ~gseq:0);
  Logsys.Logger.log logger
    (record 1 (Trans { to_ = 0 }) ~origin:1 ~seq:0 ~time:1. ~gseq:1);
  Logsys.Logger.log logger
    (record 1 (Ack_recvd { to_ = 0 }) ~origin:1 ~seq:0 ~time:2. ~gseq:2);
  let collected = Logsys.Collected.of_logger logger in
  let filtered =
    Logsys.Logging_policy.apply
      (Logsys.Logging_policy.without [ "ack" ])
      collected
  in
  Alcotest.(check int) "ack gone" 2 (Logsys.Collected.total filtered);
  let filtered_only =
    Logsys.Logging_policy.apply
      (Logsys.Logging_policy.only [ "gen" ])
      collected
  in
  Alcotest.(check int) "only gen" 1 (Logsys.Collected.total filtered_only)

let policy_validation () =
  Alcotest.(check bool) "unknown kind rejected" true
    (match Logsys.Logging_policy.without [ "warp" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "records_kind" true
    (Logsys.Logging_policy.records_kind Logsys.Logging_policy.all "recv");
  Alcotest.(check bool) "describe all" true
    (Logsys.Logging_policy.describe Logsys.Logging_policy.all = "all");
  Alcotest.(check string) "describe without" "without ack, recv"
    (Logsys.Logging_policy.describe
       (Logsys.Logging_policy.without [ "recv"; "ack" ]));
  Alcotest.(check int) "8 kinds" 8
    (List.length Logsys.Logging_policy.kind_names)

let policy_logs_predicate () =
  let p = Logsys.Logging_policy.without [ "trans" ] in
  Alcotest.(check bool) "trans dropped" false
    (Logsys.Logging_policy.logs p (Logsys.Record.Trans { to_ = 1 }));
  Alcotest.(check bool) "recv kept" true
    (Logsys.Logging_policy.logs p (Logsys.Record.Recv { from = 1 }))

(* -- In-band transport ----------------------------------------------------------- *)

let in_band_scenario =
  lazy
    (Scenario.Citysee.run
       { Scenario.Citysee.tiny with in_band_logs = true })

let in_band_collects_subset () =
  let scenario = Lazy.force in_band_scenario in
  match Scenario.Citysee.collected_in_band scenario with
  | None -> Alcotest.fail "transport enabled but no collection"
  | Some collected ->
      let written =
        Logsys.Logger.total (Node.Network.logger scenario.network)
      in
      let got = Logsys.Collected.total collected in
      Alcotest.(check bool) "nonempty" true (got > 0);
      Alcotest.(check bool) "subset of written" true (got <= written);
      (* Every collected record was genuinely written (match by gseq). *)
      let gt =
        Logsys.Logger.ground_truth (Node.Network.logger scenario.network)
      in
      let written_gseqs = Hashtbl.create 1024 in
      List.iter
        (fun (r : Logsys.Record.t) -> Hashtbl.replace written_gseqs r.gseq r)
        gt;
      for node = 0 to Logsys.Collected.n_nodes collected - 1 do
        Array.iter
          (fun (r : Logsys.Record.t) ->
            match Hashtbl.find_opt written_gseqs r.gseq with
            | Some original ->
                Alcotest.(check bool) "identical to written" true (r = original)
            | None -> Alcotest.fail "collected a record never written")
          (Logsys.Collected.node_log collected node)
      done

let in_band_preserves_local_order () =
  let scenario = Lazy.force in_band_scenario in
  match Scenario.Citysee.collected_in_band scenario with
  | None -> Alcotest.fail "no collection"
  | Some collected ->
      for node = 0 to Logsys.Collected.n_nodes collected - 1 do
        let last = ref (-1) in
        Array.iter
          (fun (r : Logsys.Record.t) ->
            Alcotest.(check bool) "gseq increasing" true (r.gseq > !last);
            last := r.gseq)
          (Logsys.Collected.node_log collected node)
      done

let in_band_stats_consistent () =
  let scenario = Lazy.force in_band_scenario in
  match Node.Network.in_band_stats scenario.network with
  | None -> Alcotest.fail "stats expected"
  | Some (written, dropped, collected) ->
      Alcotest.(check bool) "collected <= written" true (collected <= written);
      Alcotest.(check bool) "counters nonnegative" true
        (written >= 0 && dropped >= 0 && collected >= 0);
      Alcotest.(check int) "written matches logger" written
        (Logsys.Logger.total (Node.Network.logger scenario.network));
      (* Healthy tiny network: most of the log arrives. *)
      Alcotest.(check bool) "reasonable yield" true
        (float_of_int collected /. float_of_int written > 0.5)

let no_transport_means_none () =
  let scenario = Scenario.Citysee.run Scenario.Citysee.tiny in
  Alcotest.(check bool) "no collection" true
    (Scenario.Citysee.collected_in_band scenario = None);
  Alcotest.(check bool) "no stats" true
    (Node.Network.in_band_stats scenario.network = None)

let in_band_reconstruction_works () =
  let scenario = Lazy.force in_band_scenario in
  match Scenario.Citysee.collected_in_band scenario with
  | None -> Alcotest.fail "no collection"
  | Some collected ->
      let truth = Node.Network.truth scenario.network in
      let flows_rev = ref [] in
      Refill.Reconstruct.run collected ~sink:scenario.sink ~emit:(fun f ->
          flows_rev := f :: !flows_rev);
      let flows = List.rev !flows_rev in
      let confusion =
        Analysis.Metrics.confusion ~truth
          ~verdicts:
            (List.map
               (fun (f : Refill.Flow.t) ->
                 ((f.origin, f.seq), (Refill.Classify.classify f).cause))
               flows)
      in
      Alcotest.(check bool) "covers most packets" true
        (confusion.total
        > Logsys.Truth.count truth / 2);
      Alcotest.(check bool)
        (Printf.sprintf "useful accuracy (%.2f)"
           (Analysis.Metrics.accuracy confusion))
        true
        (Analysis.Metrics.accuracy confusion > 0.6)

let () =
  Alcotest.run "logio-policy-inband"
    [
      ( "log_io",
        [
          Alcotest.test_case "record roundtrip" `Quick roundtrip_records;
          Alcotest.test_case "rejects garbage" `Quick
            record_of_line_rejects_garbage;
          Alcotest.test_case "dump roundtrip" `Quick roundtrip_dump;
          Alcotest.test_case "dump without truth" `Quick dump_without_truth;
          Alcotest.test_case "bad header" `Quick load_rejects_bad_header;
          Alcotest.test_case "pipeline through file" `Quick
            full_pipeline_through_file;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip all kinds" `Quick
            codec_roundtrip_all_kinds;
          Alcotest.test_case "sizes" `Quick codec_sizes_small;
          Alcotest.test_case "rejects garbage" `Quick codec_rejects_garbage;
          Alcotest.test_case "rejects oversized varint" `Quick
            codec_rejects_oversized_varint;
          Alcotest.test_case "real logs compact" `Quick codec_real_logs_compact;
          QCheck_alcotest.to_alcotest codec_log_roundtrip_property;
          QCheck_alcotest.to_alcotest codec_truncation_property;
        ] );
      ( "logging_policy",
        [
          Alcotest.test_case "all is identity" `Quick policy_all_is_identity;
          Alcotest.test_case "without/only" `Quick policy_without_removes_kind;
          Alcotest.test_case "validation" `Quick policy_validation;
          Alcotest.test_case "logs predicate" `Quick policy_logs_predicate;
        ] );
      ( "in_band",
        [
          Alcotest.test_case "collects subset" `Quick in_band_collects_subset;
          Alcotest.test_case "local order" `Quick in_band_preserves_local_order;
          Alcotest.test_case "stats consistent" `Quick in_band_stats_consistent;
          Alcotest.test_case "disabled is none" `Quick no_transport_means_none;
          Alcotest.test_case "reconstruction works" `Quick
            in_band_reconstruction_works;
        ] );
    ]
