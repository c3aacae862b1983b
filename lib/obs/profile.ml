type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
  top_heap_words : int;
}

let sample () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

let delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    heap_words = after.heap_words;
    top_heap_words = after.top_heap_words;
  }

let attrs s =
  [
    ("gc_minor_words", Printf.sprintf "%.0f" s.minor_words);
    ("gc_promoted_words", Printf.sprintf "%.0f" s.promoted_words);
    ("gc_major_words", Printf.sprintf "%.0f" s.major_words);
    ("gc_minor_collections", string_of_int s.minor_collections);
    ("gc_major_collections", string_of_int s.major_collections);
    ("gc_heap_words", string_of_int s.heap_words);
    ("gc_top_heap_words", string_of_int s.top_heap_words);
  ]

let measure f =
  let before = sample () in
  let x = f () in
  let after = sample () in
  (x, delta ~before ~after)

let with_stage ?(cat = "refill") ~name f =
  let s = Span.sink () in
  if Sink.is_null s then f ()
  else begin
    let t0 = Span.now_us () in
    let before = sample () in
    Fun.protect
      ~finally:(fun () ->
        let after = sample () in
        let t1 = Span.now_us () in
        Sink.emit s
          {
            Sink.name;
            cat;
            ph = 'X';
            ts_us = t0;
            dur_us = t1 -. t0;
            tid = Span.tid ();
            args = attrs (delta ~before ~after);
          })
      f
  end
