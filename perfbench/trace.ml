(* Spans recorded by the harness around its calls into the pipeline.

   Tracing is off for the measured (untraced) passes: [with_] is then a
   single flag test and a direct call.  A traced pass records one span per
   call — name, start, end, and the enclosing span on the same thread — into
   the calling thread's own track, so threads never share a buffer.  Spans
   stay in memory until the pass ends; [chrome] renders them for Perfetto
   and [layers] folds them into per-name self times. *)

module J = Refill_obs.Json

let enabled = ref false
let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** Enclosing span on the same track; [-1] at top level. *)
}

type track = {
  tid : int;
  tname : string;
  mutable open_ids : int list;
  mutable spans : span list;  (** Newest first. *)
}

let next_id = Atomic.make 0
let tracks : track list ref = ref []
let tracks_mu = Mutex.create ()

let track tname =
  Mutex.protect tracks_mu (fun () ->
      let t =
        { tid = List.length !tracks + 1; tname; open_ids = []; spans = [] }
      in
      tracks := t :: !tracks;
      t)

(* Adopt spans recorded by another process as a track of this one; ids are
   shifted clear of this process's. *)
let import tname spans =
  let off = 1 lsl 40 in
  let tr = track tname in
  tr.spans <-
    List.map
      (fun s ->
        let parent = if s.parent < 0 then -1 else s.parent + off in
        { s with id = s.id + off; parent })
      spans

let reset () =
  Mutex.protect tracks_mu (fun () -> tracks := []);
  Atomic.set next_id 0

let close_span tr id name start =
  let stop = now () in
  tr.open_ids <- List.tl tr.open_ids;
  let parent = match tr.open_ids with p :: _ -> p | [] -> -1 in
  tr.spans <- { id; name; start; stop; parent } :: tr.spans

let with_ tr name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    tr.open_ids <- id :: tr.open_ids;
    let start = now () in
    match f () with
    | v ->
        close_span tr id name start;
        v
    | exception e ->
        close_span tr id name start;
        raise e
  end

let all_spans () =
  List.concat_map (fun tr -> List.map (fun s -> (tr, s)) tr.spans) !tracks

(* Self time = duration minus the part covered by direct children.  Spans
   of one track nest properly (they come from one thread's call stack), so
   subtracting child durations is exact. *)
let self_times () =
  let spans = all_spans () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (_, s) ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun (tr, s) ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (tr, s, s.stop -. s.start -. kids))
    spans

type layer = { calls : int; total : float; self : float }

(* Per span name: calls, summed duration, summed self time; optionally
   restricted to one track. *)
let layers ?track_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tr, s, self) ->
      if Option.fold ~none:true ~some:(String.equal tr.tname) track_name
      then begin
        let l =
          Option.value
            ~default:{ calls = 0; total = 0.; self = 0. }
            (Hashtbl.find_opt tbl s.name)
        in
        Hashtbl.replace tbl s.name
          {
            calls = l.calls + 1;
            total = l.total +. (s.stop -. s.start);
            self = l.self +. self;
          }
      end)
    (self_times ());
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Chrome trace-event JSON ("X" complete events, microseconds from
   [origin]), with one thread-name metadata record per track. *)
let chrome ~origin path =
  let us t = J.Num (Float.round ((t -. origin) *. 1e7) /. 10.) in
  let meta =
    List.map
      (fun tr ->
        J.Obj
          [
            ("name", J.Str "thread_name");
            ("ph", J.Str "M");
            ("pid", J.Num 1.);
            ("tid", J.Num (float_of_int tr.tid));
            ("args", J.Obj [ ("name", J.Str tr.tname) ]);
          ])
      !tracks
  in
  let events =
    List.map
      (fun (tr, s) ->
        J.Obj
          [
            ("name", J.Str s.name);
            ("cat", J.Str "perfbench");
            ("ph", J.Str "X");
            ("ts", us s.start);
            ("dur", J.Num (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
            ("pid", J.Num 1.);
            ("tid", J.Num (float_of_int tr.tid));
            ( "args",
              J.Obj
                [
                  ("id", J.Num (float_of_int s.id));
                  ("parent", J.Num (float_of_int s.parent));
                ] );
          ])
      (all_spans ())
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("traceEvents", J.Arr (meta @ events));
                ("displayTimeUnit", J.Str "ms");
              ])))
