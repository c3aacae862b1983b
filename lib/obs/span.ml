(* Read by every domain that records a span. *)
let current = Atomic.make Sink.null

let set_sink s = Atomic.set current s

let swap_sink s = Atomic.exchange current s

let sink () = Atomic.get current

let enabled () = not (Sink.is_null (Atomic.get current))

let tid () = (Domain.self () :> int) + 1

(* Timestamps are microseconds since process start: small enough to keep
   full precision through JSON rendering, and Perfetto only cares about
   relative time anyway. *)
let epoch = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let with_ ?(cat = "refill") ?(attrs = []) ~name f =
  let s = Atomic.get current in
  if Sink.is_null s then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        Sink.emit s
          {
            Sink.name;
            cat;
            ph = 'X';
            ts_us = t0;
            dur_us = t1 -. t0;
            tid = tid ();
            args = attrs;
          })
      f
  end

let instant ?(cat = "refill") ?(attrs = []) name =
  let s = Atomic.get current in
  if not (Sink.is_null s) then
    Sink.emit s
      {
        Sink.name;
        cat;
        ph = 'i';
        ts_us = now_us ();
        dur_us = 0.;
        tid = tid ();
        args = attrs;
      }
