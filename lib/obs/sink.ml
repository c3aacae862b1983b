type event = {
  name : string;
  cat : string;
  ph : char;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * string) list;
}

(* Spans come from any domain, so each live sink takes one event at a
   time under its own lock. *)
type t =
  | Null
  | Memory of { lock : Mutex.t; mutable events : event list }
  | File of {
      lock : Mutex.t;
      oc : out_channel;
      mutable first : bool;
      mutable closed : bool;
    }

let null = Null

let is_null = function Null -> true | Memory _ | File _ -> false

let memory () = Memory { lock = Mutex.create (); events = [] }

let event_to_json e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (String.make 1 e.ph));
      ("ts", Json.Num e.ts_us);
      ("dur", Json.Num e.dur_us);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int e.tid));
    ]
  in
  let args =
    match e.args with
    | [] -> []
    | args ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ]
  in
  Json.Obj (base @ args)

let trace_json events =
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event_to_json events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let file path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  File { lock = Mutex.create (); oc; first = true; closed = false }

let emit t e =
  match t with
  | Null -> ()
  | Memory m -> Mutex.protect m.lock (fun () -> m.events <- e :: m.events)
  | File f ->
      let json = Json.to_string (event_to_json e) in
      Mutex.protect f.lock (fun () ->
          if not f.closed then begin
            if f.first then f.first <- false else output_char f.oc ',';
            output_string f.oc json
          end)

let events = function
  | Memory m -> Mutex.protect m.lock (fun () -> List.rev m.events)
  | Null | File _ -> []

let close = function
  | Null | Memory _ -> ()
  | File f ->
      Mutex.protect f.lock (fun () ->
          if not f.closed then begin
            f.closed <- true;
            output_string f.oc "],\"displayTimeUnit\":\"ms\"}\n";
            close_out f.oc
          end)
