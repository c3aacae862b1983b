(* The flat-column arena (zero-copy ingest): the materializing view must be
   Record.equal-exact for every kind and boundary value, the bulk decoders
   must agree with the record-path codec byte for byte, the packet index
   must group exactly like a naive oracle (exotic keys included), the
   batch run over an arrival-order dump read by Log_io.Mseg must
   reproduce the node-major snapshot's flows exactly, lossless and lossy,
   and Mseg must read what [Log_io.record_of_line] reads. *)

let scenario = lazy (Scenario.Citysee.run Scenario.Citysee.tiny)

let lossless = lazy (Scenario.Citysee.collected (Lazy.force scenario))

let sink () = (Lazy.force scenario).sink

let lossy_collected p seed =
  let rng = Prelude.Rng.create ~seed:(Int64.of_int seed) in
  Logsys.Collected.lossify (Logsys.Loss_model.uniform p) rng
    (Lazy.force lossless)

(* Nan-safe observable identity of a flow (see test_stream.ml). *)
let flow_sig (f : Refill.Flow.t) =
  (f.origin, f.seq, Refill.Flow.to_string f, f.stats)

let batch_flows collected =
  let acc = ref [] in
  Refill.Reconstruct.run collected ~sink:(sink ()) ~emit:(fun f ->
      acc := f :: !acc);
  List.rev !acc

let with_dump ?(time_order = false) ?truth c f =
  let path = Filename.temp_file "refill_arena" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Logsys.Log_io.save_file path ~sink:(sink ()) ?truth ~time_order c;
      f path)

(* Every row [Mseg] decodes from [path], one chunk of [chunk] rows at a
   time, after skipping [skip] records. *)
let mseg_rows ?(skip = 0) ~chunk path =
  let r = Logsys.Log_io.Mseg.open_file path in
  Alcotest.(check int) "mseg skipped" skip (Logsys.Log_io.Mseg.skip r skip);
  let a = Logsys.Arena.create () in
  while Logsys.Log_io.Mseg.next_into r a ~max_records:chunk > 0 do
    ()
  done;
  Alcotest.(check int) "read position"
    (skip + Logsys.Arena.length a)
    (Logsys.Log_io.Mseg.read r);
  (r, a)

(* The arena side of [run_arena == run]: [c] dumped in arrival order and
   read back by Mseg, so the index is built from a different row order
   than the snapshot's node-major copy. *)
let arena_flows c =
  with_dump ~time_order:true c (fun path ->
      let r, a = mseg_rows ~chunk:500 path in
      let p =
        Logsys.Arena.Packets.build a ~n_nodes:(Logsys.Log_io.Mseg.n_nodes r)
      in
      let acc = ref [] in
      Refill.Reconstruct.run_arena p ~sink:(Logsys.Log_io.Mseg.sink r)
        ~emit:(fun f -> acc := f :: !acc);
      List.rev !acc)

(* -- Record generators ----------------------------------------------------- *)

(* Ints the packed columns must hold exactly, including min_int-adjacent
   values (Bigarray int columns carry full 63-bit OCaml ints). *)
let boundary_ints =
  [
    0;
    1;
    -1;
    7;
    1000;
    max_int;
    max_int - 1;
    min_int;
    min_int + 1;
    max_int / 2;
    -(max_int / 2) - 1;
  ]

let gen_any_int =
  QCheck.Gen.(oneof [ oneofl boundary_ints; small_signed_int; int ])

let gen_time =
  QCheck.Gen.(
    oneof
      [
        float;
        return Float.nan;
        return Float.infinity;
        return Float.neg_infinity;
        return 0.;
      ])

(* A record of any kind with unconstrained column values: what push/get
   must round-trip.  Peer is [-1] (unknown node) one time in four, the
   case the no-peer poison must never be confused with. *)
let gen_record =
  QCheck.Gen.(
    let* tag = int_range 0 7 in
    let* peer = frequency [ (1, return (-1)); (3, gen_any_int) ] in
    let kind =
      Logsys.Codec.kind_of_tag tag
        (if tag >= 1 && tag <= 6 then Some peer else None)
    in
    let* node = gen_any_int in
    let* origin = gen_any_int in
    let* pkt_seq = gen_any_int in
    let* gseq = gen_any_int in
    let+ true_time = gen_time in
    ({ node; kind; origin; pkt_seq; true_time; gseq } : Logsys.Record.t))

(* A record the codec can encode: zigzag-rangeable fields, node ids a
   segment header can carry. *)
let gen_codec_int =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; -1; 7; 1000; 1 lsl 60; max_int / 2; -(max_int / 2) - 1 ];
        small_signed_int;
      ])

let gen_codec_record =
  QCheck.Gen.(
    let* tag = int_range 0 7 in
    let* peer = frequency [ (1, return (-1)); (3, gen_codec_int) ] in
    let kind =
      Logsys.Codec.kind_of_tag tag
        (if tag >= 1 && tag <= 6 then Some peer else None)
    in
    let* node = gen_codec_int in
    let* origin = gen_codec_int in
    let+ pkt_seq = gen_codec_int in
    ({ node; kind; origin; pkt_seq; true_time = Float.nan; gseq = -1 }
      : Logsys.Record.t))

let arbitrary_records =
  QCheck.make
    QCheck.Gen.(array_size (int_range 0 64) gen_record)
    ~print:(fun arr ->
      Array.to_list arr
      |> List.map Logsys.Log_io.record_to_line_exact
      |> String.concat "\n")

let arbitrary_codec_records =
  QCheck.make
    QCheck.Gen.(array_size (int_range 0 64) gen_codec_record)
    ~print:(fun arr ->
      Array.to_list arr
      |> List.map Logsys.Log_io.record_to_line_exact
      |> String.concat "\n")

(* -- View exactness -------------------------------------------------------- *)

let view_roundtrip_property =
  QCheck.Test.make ~name:"Arena.get is Record.equal-exact for any record"
    ~count:500 arbitrary_records (fun records ->
      let a = Logsys.Arena.of_records records in
      if Logsys.Arena.length a <> Array.length records then
        QCheck.Test.fail_reportf "length %d <> %d" (Logsys.Arena.length a)
          (Array.length records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "get %d: %s <> %s" i
              (Logsys.Log_io.record_to_line_exact (Logsys.Arena.get a i))
              (Logsys.Log_io.record_to_line_exact r);
          Array.iteri
            (fun j r' ->
              if Logsys.Arena.equal_rows a i j <> Logsys.Record.equal r r' then
                QCheck.Test.fail_reportf
                  "equal_rows %d %d disagrees with Record.equal" i j)
            records)
        records;
      true)

let view_pinned_kinds () =
  (* One record of each kind, with the peer cases that matter pinned. *)
  let mk node kind : Logsys.Record.t =
    { node; kind; origin = 3; pkt_seq = 9; true_time = Float.nan; gseq = -1 }
  in
  let records =
    [|
      mk 1 Gen;
      mk 2 (Recv { from = -1 });
      mk 2 (Dup { from = 1 });
      mk 2 (Overflow { from = 1 });
      mk 1 (Trans { to_ = 2 });
      mk 1 (Ack_recvd { to_ = -1 });
      mk 1 (Retx_timeout { to_ = 2 });
      mk 0 Deliver;
    |]
  in
  let a = Logsys.Arena.of_records records in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "kind %d round-trips" i)
        true
        (Logsys.Record.equal (Logsys.Arena.get a i) r))
    records;
  (* to_records materializes the lot. *)
  let back = Logsys.Arena.to_records a in
  Alcotest.(check int) "to_records length" 8 (Array.length back);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "to_records equal" true
        (Logsys.Record.equal back.(i) r))
    records

let clear_reuses_storage () =
  let a = Logsys.Arena.create ~capacity:4 () in
  for i = 0 to 99 do
    Logsys.Arena.push_row a ~node:i ~tag:0 ~peer:0 ~origin:i ~pkt_seq:i
      ~true_time:0. ~gseq:i
  done;
  Alcotest.(check int) "grown" 100 (Logsys.Arena.length a);
  let cap = Logsys.Arena.capacity a in
  Logsys.Arena.clear a;
  Alcotest.(check int) "cleared" 0 (Logsys.Arena.length a);
  Alcotest.(check int) "storage kept" cap (Logsys.Arena.capacity a)

(* -- Bulk decode parity ---------------------------------------------------- *)

let decode_log_parity =
  QCheck.Test.make
    ~name:"decode_log_into == decode_log on random encoded logs" ~count:300
    arbitrary_codec_records (fun records ->
      let b = Logsys.Codec.encode_log records in
      let via_records = Logsys.Codec.decode_log ~node:5 b in
      let a = Logsys.Arena.create () in
      let n = Logsys.Arena.decode_log_into a ~node:5 b in
      if n <> Array.length via_records then
        QCheck.Test.fail_reportf "row count %d <> %d" n
          (Array.length via_records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "row %d: %s <> %s" i
              (Logsys.Log_io.record_to_line_exact (Logsys.Arena.get a i))
              (Logsys.Log_io.record_to_line_exact r))
        via_records;
      true)

let decode_segment_parity =
  QCheck.Test.make
    ~name:"decode_segment_into == decode_segment on random segments"
    ~count:300 arbitrary_codec_records (fun records ->
      let b = Logsys.Codec.encode_segment records in
      let via_records = Logsys.Codec.decode_segment b in
      let a = Logsys.Arena.create () in
      let n = Logsys.Arena.decode_segment_into a b in
      if n <> Array.length via_records then
        QCheck.Test.fail_reportf "row count %d <> %d" n
          (Array.length via_records);
      Array.iteri
        (fun i r ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) r) then
            QCheck.Test.fail_reportf "row %d differs" i)
        via_records;
      true)

let decode_rejects_garbage () =
  let a = Logsys.Arena.create () in
  let raises f =
    match f () with exception Failure _ -> true | _ -> false
  in
  Alcotest.(check bool) "truncated log raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0 (Bytes.of_string "\x01")));
  Alcotest.(check bool) "unknown tag raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0 (Bytes.of_string "\xff")));
  Alcotest.(check bool) "oversized varint raises" true
    (raises (fun () ->
         Logsys.Arena.decode_log_into a ~node:0
           (Bytes.of_string "\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")));
  Alcotest.(check bool) "trailing segment bytes raise" true
    (raises (fun () ->
         Logsys.Arena.decode_segment_into a (Bytes.of_string "\x00\x00")))

(* -- Codec guards (satellite) ----------------------------------------------- *)

let zigzag_guards () =
  let raises f =
    match f () with exception Failure _ -> true | _ -> false
  in
  (* The extremes of the representable range still map. *)
  Alcotest.(check int) "max boundary round-trips" (max_int / 2)
    (Logsys.Codec.unzigzag (Logsys.Codec.zigzag (max_int / 2)));
  Alcotest.(check int) "min boundary round-trips"
    (-(max_int / 2) - 1)
    (Logsys.Codec.unzigzag (Logsys.Codec.zigzag (-(max_int / 2) - 1)));
  (* One past either end would silently wrap; both must raise. *)
  Alcotest.(check bool) "max_int/2 + 1 raises" true
    (raises (fun () -> Logsys.Codec.zigzag ((max_int / 2) + 1)));
  Alcotest.(check bool) "min_int raises" true
    (raises (fun () -> Logsys.Codec.zigzag min_int));
  Alcotest.(check bool) "max_int raises" true
    (raises (fun () -> Logsys.Codec.zigzag max_int));
  (* encode_record surfaces the guard for out-of-range fields. *)
  let r : Logsys.Record.t =
    {
      node = 0;
      kind = Gen;
      origin = max_int;
      pkt_seq = 0;
      true_time = Float.nan;
      gseq = -1;
    }
  in
  let buf = Buffer.create 8 in
  Alcotest.(check bool) "encode_record rejects out-of-range origin" true
    (raises (fun () -> Logsys.Codec.encode_record buf r))

(* -- Pipeline equivalence --------------------------------------------------- *)

let run_arena_equals_run_lossless () =
  let c = Lazy.force lossless in
  let a = List.map flow_sig (batch_flows c) in
  let b = List.map flow_sig (arena_flows c) in
  Alcotest.(check int) "flow count" (List.length a) (List.length b);
  List.iter2
    (fun (ao, as_, astr, ast) (bo, bs, bstr, bst) ->
      Alcotest.(check (pair int int)) "key" (ao, as_) (bo, bs);
      Alcotest.(check string) "flow" astr bstr;
      Alcotest.(check bool) "stats" true (ast = bst))
    a b

let run_arena_equals_run_lossy =
  QCheck.Test.make ~name:"run_arena == run under random log loss" ~count:20
    QCheck.(pair (int_range 0 90) (int_range 1 10_000))
    (fun (pct, seed) ->
      let c = lossy_collected (float_of_int pct /. 100.) seed in
      let a = List.map flow_sig (batch_flows c) in
      let b = List.map flow_sig (arena_flows c) in
      a = b)

(* The naive per-packet grouping: records keyed by packet, nodes
   ascending, each node's records in log order. *)
let naive_packets c =
  let tbl = Hashtbl.create 64 in
  for node = Logsys.Collected.n_nodes c - 1 downto 0 do
    let log = Logsys.Collected.node_log c node in
    for i = Array.length log - 1 downto 0 do
      let key = Logsys.Record.packet_key log.(i) in
      Hashtbl.replace tbl key
        (log.(i) :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
    done
  done;
  Hashtbl.fold (fun key records acc -> (key, records) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The index against the oracle: same sorted keys, and each packet's
   records the snapshot's own (physically), in node-scan order, grouped
   per node by [events_of_packet]. *)
let check_index_matches_oracle c =
  let oracle = naive_packets c in
  Alcotest.(check (list (pair int int)))
    "packet keys" (List.map fst oracle)
    (Logsys.Collected.packet_keys c);
  List.iter
    (fun ((origin, seq), expected) ->
      let got = Logsys.Collected.packet_records c ~origin ~seq in
      Alcotest.(check int)
        (Printf.sprintf "packet (%d,%d) size" origin seq)
        (List.length expected) (Array.length got);
      List.iteri
        (fun i r ->
          if got.(i) != r then
            Alcotest.failf "packet (%d,%d) record %d out of node-scan order"
              origin seq i)
        expected;
      let groups =
        List.fold_right
          (fun (r : Logsys.Record.t) acc ->
            match acc with
            | (node, rs) :: rest when node = r.node -> (node, r :: rs) :: rest
            | _ -> (r.node, [ r ]) :: acc)
          expected []
      in
      Alcotest.(check bool)
        (Printf.sprintf "packet (%d,%d) per-node groups" origin seq)
        true
        (List.equal
           (fun (n, rs) (n', rs') -> n = n' && List.equal ( == ) rs rs')
           (Logsys.Collected.events_of_packet c ~origin ~seq)
           groups))
    oracle

let packets_index_matches_collected () =
  check_index_matches_oracle (Lazy.force lossless);
  check_index_matches_oracle (lossy_collected 0.3 5)

(* Keys no logger produces — a negative origin or seq, or one at or past
   2^28 — must index, sort and reconstruct like any other key, and a
   zero-node snapshot must reconstruct and merge nothing. *)
let exotic_keys () =
  let big = 1 lsl 28 in
  let r node origin seq kind : Logsys.Record.t =
    { node; kind; origin; pkt_seq = seq; true_time = 0.; gseq = 0 }
  in
  let logs =
    [|
      [|
        r 0 (-1) 5 (Recv { from = 2 });
        r 0 1 0 Deliver;
        r 0 big 0 (Recv { from = 1 });
      |];
      [|
        r 1 1 0 Gen;
        r 1 1 big (Trans { to_ = 0 });
        r 1 2 (-3) (Recv { from = 2 });
        r 1 1 0 (Trans { to_ = 0 });
        r 1 big 0 (Trans { to_ = 0 });
      |];
      [|
        r 2 (-1) 5 Gen;
        r 2 1 big Gen;
        r 2 2 (-3) Gen;
        r 2 (-1) 5 (Trans { to_ = 0 });
        r 2 0 2 (Recv { from = 1 });
      |];
    |]
  in
  let c = Logsys.Collected.of_node_logs logs in
  let keys = Logsys.Collected.packet_keys c in
  Alcotest.(check (list (pair int int)))
    "sorted, small and exotic keys in one order"
    [ (-1, 5); (0, 2); (1, 0); (1, big); (2, -3); (big, 0) ]
    keys;
  check_index_matches_oracle c;
  let flows = ref [] in
  Refill.Reconstruct.run c ~sink:0 ~emit:(fun f -> flows := f :: !flows);
  let flows = Array.of_list (List.rev !flows) in
  Alcotest.(check (list (pair int int)))
    "flows in key order" keys
    (Array.to_list
       (Array.map (fun (f : Refill.Flow.t) -> (f.origin, f.seq)) flows));
  let stats = Refill.Global_flow.merge c ~flows ~emit:ignore in
  Alcotest.(check int) "every event merged"
    (Array.fold_left
       (fun n f -> n + Refill.Flow.length f)
       0 flows)
    stats.events;
  let empty = Logsys.Collected.of_node_logs [||] in
  Alcotest.(check (list (pair int int)))
    "no keys" []
    (Logsys.Collected.packet_keys empty);
  Refill.Reconstruct.run empty ~sink:0 ~emit:(fun _ ->
      Alcotest.fail "flow from an empty snapshot");
  let stats = Refill.Global_flow.merge empty ~flows:[||] ~emit:ignore in
  Alcotest.(check int) "nothing merged" 0 stats.events

(* Key components from every range the index must treat alike: small
   dense values, negatives, values at or past 2^28 and the ends of the int
   range. *)
let gen_key_int =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 20);
        (2, int_range (-20) (-1));
        (2, map (fun k -> (1 lsl 28) + k) (int_range (-2) 20));
        (1, oneofl [ min_int; min_int + 1; max_int - 1; max_int ]);
      ])

(* A snapshot of 1-6 nodes and up to 400 records whose keys come from a
   small pool, so packets span nodes and repeat within a node's log. *)
let arbitrary_snapshot =
  QCheck.make
    ~print:(fun logs ->
      Array.to_list (Array.concat (Array.to_list logs))
      |> List.map Logsys.Log_io.record_to_line_exact
      |> String.concat "\n")
    QCheck.Gen.(
      let* n_nodes = int_range 1 6 in
      let* pool = array_size (int_range 1 30) (pair gen_key_int gen_key_int) in
      let+ rows =
        list_size (int_range 0 400)
          (pair (int_range 0 (n_nodes - 1)) (oneofa pool))
      in
      Array.init n_nodes (fun node ->
          List.filter (fun (nd, _) -> nd = node) rows
          |> List.map (fun (_, (origin, seq)) : Logsys.Record.t ->
                 {
                   node;
                   kind = Gen;
                   origin;
                   pkt_seq = seq;
                   true_time = 0.;
                   gseq = 0;
                 })
          |> Array.of_list))

let index_matches_oracle_on_any_keys =
  QCheck.Test.make ~name:"packet index matches the oracle on any keys"
    ~count:200 arbitrary_snapshot (fun logs ->
      let c = Logsys.Collected.of_node_logs logs in
      check_index_matches_oracle c;
      let p = Logsys.Collected.packets c in
      let keys = Logsys.Arena.Packets.keys p in
      List.iter
        (fun (origin, seq) ->
          List.iter
            (fun (origin, seq) ->
              if
                (not (List.mem (origin, seq) keys))
                && Logsys.Arena.Packets.packet_rows p ~origin ~seq <> [||]
              then
                QCheck.Test.fail_reportf "absent key (%d,%d) has rows" origin
                  seq)
            [ (origin, seq + 1); (origin + 1, seq); (seq, origin) ])
        keys;
      true)

(* The index's memory follows its rows and distinct keys, not the key
   values or the node count it is told: three rows holding origin 2^24
   and seq 2^24 must not allocate tables sized by them, nor must a
   [~n_nodes] of [max_int] (a dump header's value). *)
let index_memory_follows_rows () =
  let a = Logsys.Arena.create () in
  List.iter
    (fun (origin, seq) ->
      Logsys.Arena.push_row a ~node:0 ~tag:0 ~peer:0 ~origin ~pkt_seq:seq
        ~true_time:0. ~gseq:0)
    [ (1, 0); (1 lsl 24, 1); (1, 1 lsl 24) ];
  List.iter
    (fun n_nodes ->
      let before = (Gc.quick_stat ()).major_words in
      let p = Logsys.Arena.Packets.build a ~n_nodes in
      let words = (Gc.quick_stat ()).major_words -. before in
      Alcotest.(check (list (pair int int)))
        "keys"
        [ (1, 0); (1, 1 lsl 24); (1 lsl 24, 1) ]
        (Logsys.Arena.Packets.keys p);
      Alcotest.(check int) "nodes with rows" 1 (Logsys.Arena.Packets.n_nodes p);
      Alcotest.(check (array int)) "a node past the rows has none" [||]
        (Logsys.Arena.Packets.node_rows p (max_int - 1));
      if words >= 1e6 then
        Alcotest.failf "a 3-row index over %d nodes allocated %.0f major-heap \
                        words" n_nodes words)
    [ 1; max_int ]

let packets_build_rejects_bad_node () =
  let a = Logsys.Arena.create () in
  Logsys.Arena.push_row a ~node:7 ~tag:0 ~peer:0 ~origin:0 ~pkt_seq:0
    ~true_time:0. ~gseq:0;
  Alcotest.(check bool) "node out of range raises" true
    (match Logsys.Arena.Packets.build a ~n_nodes:7 with
    | exception Failure _ -> true
    | _ -> false)

(* -- Memory-mapped dump reader (Mseg) ------------------------------------- *)

(* What a saved record reads back as through the reference parser:
   [record_to_line] keeps six decimals of time. *)
let reference_log c node =
  Array.map
    (fun r -> Logsys.Log_io.record_of_line (Logsys.Log_io.record_to_line r))
    (Logsys.Collected.node_log c node)

(* [Log_io.record_of_line] is the reference parser: an arrival-order dump
   with truth lines must decode to the saved records, read back line by
   line, node by node in log order, with the same header; and every saved
   fate must come back through [Mseg.truth]. *)
let mseg_equals_reference () =
  let sc = Lazy.force scenario in
  let c = lossy_collected 0.2 77 in
  let truth = Node.Network.truth sc.network in
  with_dump ~time_order:true ~truth c (fun path ->
      let n_nodes = Logsys.Collected.n_nodes c in
      let r, a = mseg_rows ~chunk:777 path in
      Alcotest.(check int) "nodes" n_nodes (Logsys.Log_io.Mseg.n_nodes r);
      Alcotest.(check int) "sink" (sink ()) (Logsys.Log_io.Mseg.sink r);
      Alcotest.(check int) "same record count" (Logsys.Collected.total c)
        (Logsys.Arena.length a);
      let p = Logsys.Arena.Packets.build a ~n_nodes in
      for node = 0 to n_nodes - 1 do
        let rows = Logsys.Arena.Packets.node_rows p node in
        let log = reference_log c node in
        Alcotest.(check int)
          (Printf.sprintf "node %d log length" node)
          (Array.length log) (Array.length rows);
        Array.iteri
          (fun i row ->
            if not (Logsys.Record.equal (Logsys.Arena.get a row) log.(i)) then
              Alcotest.failf "node %d record %d differs" node i)
          rows
      done;
      match Logsys.Log_io.Mseg.truth r with
      | None -> Alcotest.fail "truth expected"
      | Some read ->
          Alcotest.(check int) "fate count" (Logsys.Truth.count truth)
            (Logsys.Truth.count read);
          let time = Printf.sprintf "%.6f" in
          Logsys.Truth.iter truth (fun (origin, seq) (f : Logsys.Truth.fate) ->
              match Logsys.Truth.find read ~origin ~seq with
              | Some g
                when Logsys.Cause.equal f.cause g.cause
                     && f.loss_node = g.loss_node && f.path = g.path
                     && time f.generated_at = time g.generated_at
                     && time f.resolved_at = time g.resolved_at ->
                  ()
              | _ -> Alcotest.failf "fate (%d, %d) differs" origin seq))

(* A node-major dump's file order is its node logs in turn, so skipping
   [k] records must land on the [k]th record of that concatenation. *)
let mseg_skip_parity () =
  let c = lossy_collected 0.1 123 in
  with_dump c (fun path ->
      let all =
        Array.concat
          (List.init (Logsys.Collected.n_nodes c) (reference_log c))
      in
      let total = Array.length all in
      let k = total / 3 in
      let _, a = mseg_rows ~skip:k ~chunk:500 path in
      Alcotest.(check int) "rest count" (total - k) (Logsys.Arena.length a);
      Array.iteri
        (fun i rec_ ->
          if not (Logsys.Record.equal (Logsys.Arena.get a i) rec_) then
            Alcotest.failf "record %d: %s <> %s" (k + i)
              (Logsys.Log_io.record_to_line_exact (Logsys.Arena.get a i))
              (Logsys.Log_io.record_to_line_exact rec_))
        (Array.sub all k (total - k));
      (* Over-skip reports what was actually available. *)
      let r2 = Logsys.Log_io.Mseg.open_file path in
      Alcotest.(check int) "over-skip clamps" total
        (Logsys.Log_io.Mseg.skip r2 (total + 999)))

let write_file lines =
  let path = Filename.temp_file "refill_arena" ".log" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let mseg_rejects_malformed () =
  let raises_failure path =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match
          let r = Logsys.Log_io.Mseg.open_file path in
          let a = Logsys.Arena.create () in
          ignore (Logsys.Log_io.Mseg.next_into r a ~max_records:10)
        with
        | exception Failure _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "bad header raises" true
    (raises_failure (write_file [ "not a dump" ]));
  Alcotest.(check bool) "malformed record raises" true
    (raises_failure
       (write_file
          [
            "# refill-log v1";
            "# nodes 3";
            "# sink 0";
            "r 1 teleport - 1 0 0.0 0";
          ]));
  Alcotest.(check bool) "node out of range raises" true
    (raises_failure
       (write_file
          [ "# refill-log v1"; "# nodes 3"; "# sink 0"; "r 9 gen - 9 0 0.5 1" ]));
  Alcotest.(check bool) "peer on gen raises" true
    (raises_failure
       (write_file
          [ "# refill-log v1"; "# nodes 3"; "# sink 0"; "r 1 gen 2 1 0 0.5 1" ]));
  (* 2^64 + 1 wraps to 1 in a 63-bit accumulator. *)
  Alcotest.(check bool) "overflowing origin raises" true
    (raises_failure
       (write_file
          [
            "# refill-log v1";
            "# nodes 3";
            "# sink 0";
            "r 1 gen - 18446744073709551617 0 0.5 1";
          ]))

(* Integer fields at the ends of the int range, and a long token of
   leading zeros, decode the same through the reference reader and
   Mseg. *)
let mseg_int_extremes () =
  let line =
    Printf.sprintf "r 1 recv %d %d %d 0.5 -0000000000000000000000007" max_int
      min_int max_int
  in
  let path = write_file [ "# refill-log v1"; "# nodes 3"; "# sink 0"; line ] in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = Logsys.Log_io.record_of_line line in
  Alcotest.(check bool) "reference peer" true
    (Logsys.Record.kind_equal r.kind (Recv { from = max_int }));
  Alcotest.(check (list int)) "reference origin, seq, gseq"
    [ min_int; max_int; -7 ] [ r.origin; r.pkt_seq; r.gseq ];
  let _, a = mseg_rows ~chunk:10 path in
  Alcotest.(check int) "one row" 1 (Logsys.Arena.length a);
  Alcotest.(check bool) "mseg row equals the reference record" true
    (Logsys.Record.equal (Logsys.Arena.get a 0) r)

(* One record line holding time token [tok], through Mseg: its time, or
   [None] when Mseg rejects the line. *)
let mseg_time tok =
  let line = Printf.sprintf "r 1 gen - 1 0 %s 0" tok in
  let path = write_file [ "# refill-log v1"; "# nodes 3"; "# sink 0"; line ] in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = Logsys.Log_io.Mseg.open_file path in
  let a = Logsys.Arena.create () in
  match Logsys.Log_io.Mseg.next_into r a ~max_records:1 with
  | exception Failure _ -> None
  | _ -> Some (Logsys.Arena.true_time a 0)

(* [m]'s digits with the point [k] digits from the right. *)
let with_point ~neg m k =
  let s = string_of_int m in
  let s = String.make (max 0 (k + 1 - String.length s)) '0' ^ s in
  let i = String.length s - k in
  (if neg then "-" else "") ^ String.sub s 0 i ^ "." ^ String.sub s i k

let time_token_gen =
  let open QCheck.Gen in
  let two53 = 1 lsl 53 in
  frequency
    [
      (3, map (Printf.sprintf "%.6f") (float_range (-1e7) 1e7));
      (2, map (Printf.sprintf "%.6f") float);
      ( 1,
        map (Printf.sprintf "%.6f")
          (oneofl [ 0.; -0.; 1e-7; -4e-7; 5e-7; 9007199254.740992 ]) );
      (* Near 2^53 / 10^6: mantissas around the fast path's bound. *)
      ( 2,
        map3
          (fun d k neg -> with_point ~neg (two53 + d) k)
          (int_range (-2000) 2000) (int_range 1 8) bool );
      ( 1,
        map3
          (fun m k neg -> with_point ~neg m k)
          (oneofl [ two53 - 1; two53; two53 + 1 ])
          (int_range 1 25) bool );
      (* Any digit string with a point: long mantissas, many fraction
         digits. *)
      ( 2,
        map3
          (fun digits k neg ->
            let k = min k (String.length digits) in
            let i = String.length digits - k in
            (if neg then "-" else "")
            ^ String.sub digits 0 i ^ "." ^ String.sub digits i k)
          (string_size ~gen:(char_range '0' '9') (int_range 1 30))
          (int_range 0 30) bool );
      ( 2,
        oneofl
          [
            "nan"; "inf"; "-inf"; "-"; ".5"; "5."; "-.5"; "1e3"; "1.5e3";
            "1_0.5"; "1.5_"; "+1.5"; "0x1p3"; "1..5"; "1.5."; "-0.000000";
            "0.000000"; "00.5"; "-00000000000000000000.1";
          ] );
    ]

(* The fast path is pinned to the reference: the same bits as
   [float_of_string], or the same rejection. *)
let mseg_time_token_parity =
  QCheck.Test.make ~name:"Mseg time token == float_of_string" ~count:2000
    (QCheck.make ~print:Fun.id time_token_gen)
    (fun tok ->
      match (float_of_string_opt tok, mseg_time tok) with
      | None, None -> true
      | Some f, Some g -> Int64.bits_of_float f = Int64.bits_of_float g
      | _ -> false)

(* A warm [next_into] over a [%.6f] dump allocates only each record's
   boxed time: no per-line string, closure or ref. *)
let mseg_allocation () =
  let c = Lazy.force lossless in
  with_dump ~time_order:true c (fun path ->
      let a = Logsys.Arena.create () in
      let words_per_record () =
        let r = Logsys.Log_io.Mseg.open_file path in
        Logsys.Arena.clear a;
        let before = Gc.minor_words () in
        let n = Logsys.Log_io.Mseg.next_into r a ~max_records:max_int in
        (Gc.minor_words () -. before) /. float_of_int n
      in
      ignore (words_per_record ());
      let w = words_per_record () in
      if w > 4. then
        Alcotest.failf "%.1f minor words per record, more than 4" w)

(* [map_file] would refuse a directory with ENODEV ("No such device"). *)
let mseg_directory_is_eisdir () =
  let dir = Filename.temp_dir "refill_arena" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  Alcotest.(check bool) "EISDIR" true
    (match Logsys.Log_io.Mseg.open_file dir with
    | exception Unix.Unix_error (Unix.EISDIR, _, _) -> true
    | _ -> false)

let () =
  Alcotest.run "arena"
    [
      ( "view",
        [
          QCheck_alcotest.to_alcotest view_roundtrip_property;
          Alcotest.test_case "pinned kinds" `Quick view_pinned_kinds;
          Alcotest.test_case "clear reuses storage" `Quick clear_reuses_storage;
        ] );
      ( "decode",
        [
          QCheck_alcotest.to_alcotest decode_log_parity;
          QCheck_alcotest.to_alcotest decode_segment_parity;
          Alcotest.test_case "rejects garbage" `Quick decode_rejects_garbage;
        ] );
      ( "codec_guards",
        [ Alcotest.test_case "zigzag range" `Quick zigzag_guards ] );
      ( "pipeline",
        [
          Alcotest.test_case "run_arena == run (lossless)" `Quick
            run_arena_equals_run_lossless;
          QCheck_alcotest.to_alcotest run_arena_equals_run_lossy;
          Alcotest.test_case "packet index matches Collected" `Quick
            packets_index_matches_collected;
          Alcotest.test_case "exotic keys" `Quick exotic_keys;
          QCheck_alcotest.to_alcotest index_matches_oracle_on_any_keys;
          Alcotest.test_case "index memory follows rows" `Quick
            index_memory_follows_rows;
          Alcotest.test_case "index rejects bad node" `Quick
            packets_build_rejects_bad_node;
        ] );
      ( "mseg",
        [
          Alcotest.test_case "mseg == reference" `Quick mseg_equals_reference;
          Alcotest.test_case "skip parity" `Quick mseg_skip_parity;
          Alcotest.test_case "rejects malformed" `Quick mseg_rejects_malformed;
          Alcotest.test_case "integer extremes" `Quick mseg_int_extremes;
          QCheck_alcotest.to_alcotest mseg_time_token_parity;
          Alcotest.test_case "warm reads allocate only the time" `Quick
            mseg_allocation;
          Alcotest.test_case "a directory is EISDIR" `Quick
            mseg_directory_is_eisdir;
        ] );
    ]
