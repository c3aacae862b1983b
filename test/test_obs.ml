(* Tests for the Refill_obs observability substrate: metric semantics,
   span nesting, Chrome-trace well-formedness, and the zero-cost null
   sink. *)

module Obs = Refill_obs
module M = Obs.Metrics
module J = Obs.Json

(* -- Counters --------------------------------------------------------------- *)

let counter_basics () =
  let reg = M.create_registry () in
  let c = M.Counter.v ~registry:reg "requests_total" in
  Alcotest.(check int) "starts at zero" 0 (M.Counter.value c);
  M.Counter.inc c;
  M.Counter.inc ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (M.Counter.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.Counter.inc: negative increment") (fun () ->
      M.Counter.inc ~by:(-1) c)

let counter_interned () =
  let reg = M.create_registry () in
  let a = M.Counter.v ~registry:reg "hits_total" in
  M.Counter.inc a;
  let b = M.Counter.v ~registry:reg "hits_total" in
  M.Counter.inc b;
  Alcotest.(check int) "same instrument" 2 (M.Counter.value a);
  (* Distinct labels are distinct series. *)
  let l = M.Counter.v ~registry:reg "hits_total" ~labels:[ ("k", "v") ] in
  M.Counter.inc l;
  Alcotest.(check int) "label series separate" 2 (M.Counter.value a);
  Alcotest.(check int) "labelled value" 1 (M.Counter.value l)

let kind_conflict_rejected () =
  let reg = M.create_registry () in
  ignore (M.Counter.v ~registry:reg "x_total");
  match M.Gauge.v ~registry:reg "x_total" with
  | _ -> Alcotest.fail "kind conflict must raise"
  | exception Invalid_argument _ -> ()

let gauge_basics () =
  let reg = M.create_registry () in
  let g = M.Gauge.v ~registry:reg "depth" in
  M.Gauge.set g 3.5;
  M.Gauge.add g 1.5;
  Alcotest.(check (float 1e-9)) "set+add" 5.0 (M.Gauge.value g)

(* -- Histograms ------------------------------------------------------------- *)

let histogram_buckets () =
  let reg = M.create_registry () in
  let h =
    M.Histogram.v ~registry:reg "latency"
      ~buckets:[| 1.; 2.; 4.; 8. |]
  in
  List.iter (M.Histogram.observe h) [ 0.5; 1.0; 3.0; 100.0 ];
  Alcotest.(check int) "count" 4 (M.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 104.5 (M.Histogram.sum h);
  (* Cumulative counts: le=1 catches 0.5 and 1.0 (bounds inclusive), le=2
     adds nothing, le=4 adds 3.0, +Inf adds 100.0. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative buckets"
    [ (1., 2); (2., 2); (4., 3); (8., 3); (infinity, 4) ]
    (M.Histogram.bucket_counts h)

let histogram_edges () =
  let reg = M.create_registry () in
  let h = M.Histogram.v ~registry:reg "edges" ~buckets:[| 0.; 1. |] in
  (* Zero and negative observations land in the first finite bucket
     (bounds are inclusive upper edges). *)
  M.Histogram.observe h 0.;
  M.Histogram.observe h (-3.);
  Alcotest.(check (list (pair (float 0.) int)))
    "zero and negative in le=0"
    [ (0., 2); (1., 2); (infinity, 2) ]
    (M.Histogram.bucket_counts h);
  Alcotest.(check (float 1e-9)) "sum keeps the raw values" (-3.)
    (M.Histogram.sum h);
  (* Exact boundary values are inclusive on every edge. *)
  let b = M.Histogram.v ~registry:reg "bounds" ~buckets:[| 1.; 2.; 4. |] in
  List.iter (M.Histogram.observe b) [ 1.; 2.; 4. ];
  Alcotest.(check (list (pair (float 0.) int)))
    "each bound catches its own value"
    [ (1., 1); (2., 2); (4., 3); (infinity, 3) ]
    (M.Histogram.bucket_counts b);
  (* observe_n in one call equals n observes. *)
  let n1 = M.Histogram.v ~registry:reg "n1" ~buckets:[| 10. |] in
  M.Histogram.observe_n n1 3. 4;
  Alcotest.(check int) "observe_n count" 4 (M.Histogram.count n1);
  Alcotest.(check (float 1e-9)) "observe_n sum" 12. (M.Histogram.sum n1)

let counter_add () =
  let reg = M.create_registry () in
  let c = M.Counter.v ~registry:reg "adds_total" in
  M.Counter.add c 5;
  M.Counter.add c 0;
  Alcotest.(check int) "add accumulates" 5 (M.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
      M.Counter.add c (-1))

let histogram_log_buckets () =
  let b = M.Histogram.log_buckets ~lo:1. ~hi:8. ~factor:2. in
  Alcotest.(check (array (float 1e-9))) "geometric" [| 1.; 2.; 4.; 8. |] b;
  let d = M.Histogram.default_buckets in
  Alcotest.(check bool) "default non-empty" true (Array.length d > 10);
  let monotone = ref true in
  for i = 1 to Array.length d - 1 do
    if d.(i) <= d.(i - 1) then monotone := false
  done;
  Alcotest.(check bool) "default strictly increasing" true !monotone

(* Two domains updating the same instruments at once lose nothing. *)
let exact_across_domains () =
  let reg = M.create_registry () in
  let c = M.Counter.v ~registry:reg "hits_total" in
  let g = M.Gauge.v ~registry:reg "level" in
  let h = M.Histogram.v ~registry:reg "sizes" ~buckets:[| 1.; 10. |] in
  let n = 100_000 and started = Atomic.make 0 in
  let work () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    for i = 1 to n do
      M.Counter.inc c;
      M.Gauge.add g 1.;
      M.Histogram.observe h (float_of_int (i mod 20))
    done
  in
  let other = Domain.spawn work in
  work ();
  Domain.join other;
  Alcotest.(check int) "counter" (2 * n) (M.Counter.value c);
  Alcotest.(check (float 0.)) "gauge" (float_of_int (2 * n)) (M.Gauge.value g);
  Alcotest.(check int) "histogram count" (2 * n) (M.Histogram.count h);
  Alcotest.(check (float 0.)) "histogram sum" (float_of_int (2 * 190 * n / 20))
    (M.Histogram.sum h)

(* One domain registers fresh instruments while another dumps the
   registry: every dump parses and lists each instrument once, and the
   last lists them all.  A race is rare in one round, so there are
   twenty, each on a fresh registry. *)
let registration_round () =
  let reg = M.create_registry () in
  let n = 500 and started = Atomic.make 0 and registered = Atomic.make false in
  let await_both () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done
  in
  let other =
    Domain.spawn (fun () ->
        await_both ();
        for i = 1 to n do
          M.Counter.inc (M.Counter.v ~registry:reg (Printf.sprintf "c%d_total" i))
        done;
        Atomic.set registered true)
  in
  let names () =
    match J.parse (M.dump_json ~registry:reg ()) with
    | Error e -> Alcotest.failf "a dump during registration did not parse: %s" e
    | Ok doc -> (
        match J.member "metrics" doc with
        | Some (J.Arr entries) ->
            let names =
              List.map
                (fun e ->
                  match J.member "name" e with
                  | Some (J.Str name) -> name
                  | _ -> Alcotest.fail "entry without a name")
                entries
            in
            if List.length (List.sort_uniq compare names) <> List.length names
            then Alcotest.fail "a dump lists an instrument twice";
            names
        | _ -> Alcotest.fail "no metrics array")
  in
  await_both ();
  while not (Atomic.get registered) do
    ignore (names () : string list)
  done;
  Domain.join other;
  Alcotest.(check int) "the last dump lists every counter" n
    (List.length (names ()))

let registration_from_any_domain () =
  for _ = 1 to 20 do
    registration_round ()
  done

(* -- Dumps ------------------------------------------------------------------ *)

let populated_registry () =
  let reg = M.create_registry () in
  let c = M.Counter.v ~registry:reg "events_total" ~help:"All events." in
  M.Counter.inc ~by:7 c;
  let g = M.Gauge.v ~registry:reg "clock_seconds" in
  M.Gauge.set g 1.25;
  let h = M.Histogram.v ~registry:reg "lat" ~buckets:[| 1.; 10. |] in
  M.Histogram.observe h 5.;
  reg

(* Naive substring search; good enough for test assertions. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let prometheus_dump () =
  let reg = populated_registry () in
  let text = M.dump_prometheus ~registry:reg () in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dump contains %S" needle)
        true (contains text needle))
    [
      "# TYPE events_total counter";
      "# HELP events_total All events.";
      "events_total 7";
      "clock_seconds 1.25";
      "lat_bucket{le=\"10\"} 1";
      "lat_bucket{le=\"+Inf\"} 1";
      "lat_count 1";
    ]

let json_dump_parses () =
  let reg = populated_registry () in
  let text = M.dump_json ~registry:reg () in
  match J.parse text with
  | Error e -> Alcotest.failf "metrics JSON did not parse: %s" e
  | Ok doc -> (
      match J.member "metrics" doc with
      | Some (J.Arr entries) ->
          Alcotest.(check int) "three metrics" 3 (List.length entries);
          List.iter
            (fun entry ->
              match (J.member "name" entry, J.member "type" entry) with
              | Some (J.Str _), Some (J.Str _) -> ()
              | _ -> Alcotest.fail "entry missing name/type")
            entries
      | _ -> Alcotest.fail "no metrics array")

let reset_zeroes () =
  let reg = populated_registry () in
  M.reset reg;
  let c = M.Counter.v ~registry:reg "events_total" in
  Alcotest.(check int) "counter reset" 0 (M.Counter.value c);
  let h = M.Histogram.v ~registry:reg "lat" in
  Alcotest.(check int) "histogram reset" 0 (M.Histogram.count h)

let reset_preserves_registrations () =
  let reg = populated_registry () in
  M.reset reg;
  (* The registrations survive: instruments re-resolve (same identity) and
     the dump still carries their metadata, just with zeroed samples. *)
  let text = M.dump_prometheus ~registry:reg () in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "post-reset dump contains %S" needle)
        true (contains text needle))
    [
      "# TYPE events_total counter";
      "# HELP events_total All events.";
      "events_total 0";
      "clock_seconds 0";
      "lat_count 0";
    ];
  let c = M.Counter.v ~registry:reg "events_total" in
  M.Counter.inc ~by:3 c;
  Alcotest.(check int) "instrument usable after reset" 3 (M.Counter.value c)

let prometheus_label_escaping () =
  let reg = M.create_registry () in
  let c =
    M.Counter.v ~registry:reg "weird_total"
      ~labels:[ ("path", "a\\b\"c\nd") ]
  in
  M.Counter.inc c;
  let text = M.dump_prometheus ~registry:reg () in
  Alcotest.(check bool) "backslash, quote, newline escaped" true
    (contains text "weird_total{path=\"a\\\\b\\\"c\\nd\"} 1");
  Alcotest.(check bool) "no raw newline inside a label value" true
    (not (contains text "c\nd"))

(* -- JSON parser ------------------------------------------------------------ *)

let json_roundtrip () =
  let doc =
    J.Obj
      [
        ("a", J.Num 1.5);
        ("b", J.Str "x\"y\n");
        ("c", J.Arr [ J.Bool true; J.Null; J.Num (-3.) ]);
        ("empty", J.Obj []);
      ]
  in
  match J.parse (J.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = doc)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

(* -- Spans and sinks --------------------------------------------------------- *)

(* Install [s], run [f], restore the null sink. *)
let with_sink s f =
  Obs.Span.set_sink s;
  Fun.protect ~finally:(fun () -> Obs.Span.set_sink Obs.Sink.null) f

let span_nesting () =
  let sink = Obs.Sink.memory () in
  with_sink sink (fun () ->
      Alcotest.(check bool) "enabled" true (Obs.Span.enabled ());
      let result =
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" ~attrs:[ ("k", "v") ] (fun () -> 21)
            * 2)
      in
      Alcotest.(check int) "value returned" 42 result);
  match Obs.Sink.events sink with
  | [ inner; outer ] ->
      (* Spans are emitted at exit: innermost first. *)
      Alcotest.(check string) "inner first" "inner" inner.Obs.Sink.name;
      Alcotest.(check string) "outer second" "outer" outer.Obs.Sink.name;
      Alcotest.(check bool) "inner starts within outer" true
        (inner.ts_us >= outer.ts_us);
      Alcotest.(check bool) "inner ends within outer" true
        (inner.ts_us +. inner.dur_us <= outer.ts_us +. outer.dur_us +. 1e-6);
      Alcotest.(check (list (pair string string)))
        "attrs preserved"
        [ ("k", "v") ]
        inner.args
  | events -> Alcotest.failf "expected 2 events, got %d" (List.length events)

let span_survives_exception () =
  let sink = Obs.Sink.memory () in
  (match
     with_sink sink (fun () ->
         Obs.Span.with_ ~name:"boom" (fun () -> failwith "kaput"))
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int) "span still emitted" 1
    (List.length (Obs.Sink.events sink))

let null_sink_adds_nothing () =
  (* The default sink is null: spans run the body exactly once and record
     nothing anywhere. *)
  Alcotest.(check bool) "disabled by default" false (Obs.Span.enabled ());
  let runs = ref 0 in
  let v = Obs.Span.with_ ~name:"invisible" (fun () -> incr runs; "ok") in
  Alcotest.(check string) "value passes through" "ok" v;
  Alcotest.(check int) "body ran once" 1 !runs;
  Alcotest.(check (list reject)) "null sink holds no events" []
    (Obs.Sink.events (Obs.Span.sink ()));
  Obs.Span.instant "also-invisible";
  Alcotest.(check (list reject)) "instants discarded too" []
    (Obs.Sink.events (Obs.Span.sink ()))

let swap_sink_returns_previous () =
  let mem = Obs.Sink.memory () in
  let prev = Obs.Span.swap_sink mem in
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_sink Obs.Sink.null)
    (fun () ->
      Alcotest.(check bool) "default sink handed back" true
        (Obs.Sink.is_null prev);
      Alcotest.(check bool) "memory sink now active" true
        (Obs.Span.enabled ());
      Obs.Span.with_ ~name:"swapped" (fun () -> ());
      (* Swapping again returns the memory sink, events intact. *)
      let back = Obs.Span.swap_sink Obs.Sink.null in
      Alcotest.(check bool) "returned sink is the memory sink" true
        (back == mem);
      Alcotest.(check int) "its events survive the swap" 1
        (List.length (Obs.Sink.events back)))

(* A span's row is its domain's: the main domain's spans are on tid 1,
   a worker domain's on its id plus one. *)
let span_rows_follow_domains () =
  let sink = Obs.Sink.memory () in
  let worker =
    with_sink sink (fun () ->
        Obs.Span.with_ ~name:"main" (fun () -> ());
        let d = Domain.spawn (fun () -> Obs.Span.with_ ~name:"worker" ignore) in
        Domain.join d;
        (Domain.get_id d :> int))
  in
  Alcotest.(check (list (pair string int)))
    "rows"
    [ ("main", 1); ("worker", worker + 1) ]
    (List.map (fun (e : Obs.Sink.event) -> (e.name, e.tid))
       (Obs.Sink.events sink))

let chrome_trace_wellformed () =
  let sink = Obs.Sink.memory () in
  with_sink sink (fun () ->
      Obs.Span.with_ ~name:"a" (fun () ->
          Obs.Span.with_ ~name:"b" (fun () -> ()));
      Obs.Span.instant "marker");
  let doc = Obs.Sink.trace_json (Obs.Sink.events sink) in
  match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "trace JSON invalid: %s" e
  | Ok parsed -> (
      match J.member "traceEvents" parsed with
      | Some (J.Arr events) ->
          Alcotest.(check int) "three events" 3 (List.length events);
          List.iter
            (fun e ->
              (match J.member "ph" e with
              | Some (J.Str ("X" | "i")) -> ()
              | _ -> Alcotest.fail "bad ph");
              match (J.member "name" e, J.member "ts" e) with
              | Some (J.Str _), Some (J.Num _) -> ()
              | _ -> Alcotest.fail "missing name/ts")
            events
      | _ -> Alcotest.fail "no traceEvents array")

let file_sink_writes_trace () =
  let path = Filename.temp_file "refill_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.file path in
      with_sink sink (fun () ->
          Obs.Span.with_ ~name:"outer" (fun () ->
              Obs.Span.with_ ~name:"inner" (fun () -> ())));
      Obs.Sink.close sink;
      Obs.Sink.close sink;  (* idempotent *)
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match J.parse text with
      | Error e -> Alcotest.failf "file trace invalid: %s" e
      | Ok doc -> (
          match J.member "traceEvents" doc with
          | Some (J.Arr events) ->
              Alcotest.(check int) "two spans on disk" 2 (List.length events)
          | _ -> Alcotest.fail "no traceEvents array"))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick counter_basics;
          Alcotest.test_case "counter interning" `Quick counter_interned;
          Alcotest.test_case "kind conflict" `Quick kind_conflict_rejected;
          Alcotest.test_case "gauge" `Quick gauge_basics;
          Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
          Alcotest.test_case "histogram edges" `Quick histogram_edges;
          Alcotest.test_case "counter add" `Quick counter_add;
          Alcotest.test_case "exact across domains" `Quick
            exact_across_domains;
          Alcotest.test_case "registration from any domain" `Quick
            registration_from_any_domain;
          Alcotest.test_case "log buckets" `Quick histogram_log_buckets;
          Alcotest.test_case "prometheus dump" `Quick prometheus_dump;
          Alcotest.test_case "label escaping" `Quick
            prometheus_label_escaping;
          Alcotest.test_case "json dump parses" `Quick json_dump_parses;
          Alcotest.test_case "reset" `Quick reset_zeroes;
          Alcotest.test_case "reset keeps registrations" `Quick
            reset_preserves_registrations;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick span_nesting;
          Alcotest.test_case "exception safety" `Quick span_survives_exception;
          Alcotest.test_case "null sink is silent" `Quick null_sink_adds_nothing;
          Alcotest.test_case "swap_sink returns previous" `Quick
            swap_sink_returns_previous;
          Alcotest.test_case "span rows follow domains" `Quick
            span_rows_follow_domains;
          Alcotest.test_case "chrome trace wellformed" `Quick
            chrome_trace_wellformed;
          Alcotest.test_case "file sink" `Quick file_sink_writes_trace;
        ] );
    ]
