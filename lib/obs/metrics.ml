type counter = int Atomic.t

type gauge = float Atomic.t

(* Buckets and sum change together under [lock], so a read under it is
   consistent; the count is the buckets' total. *)
type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  bucket : int array;  (* length = Array.length bounds + 1; last = +Inf *)
  sum : float array;  (* one cell, unboxed: observing allocates nothing *)
  lock : Mutex.t;
}

type metric =
  | Counter_m of counter
  | Gauge_m of gauge
  | Histogram_m of histogram

type registered = {
  name : string;
  labels : (string * string) list;  (* sorted by key *)
  help : string;
  metric : metric;
}

(* Registration and the walks over [tbl] take [mu], so a domain may
   register while another dumps. *)
type registry = {
  tbl : (string * (string * string) list, registered) Hashtbl.t;
  mu : Mutex.t;
}

let create_registry () = { tbl = Hashtbl.create 64; mu = Mutex.create () }

let default_registry = create_registry ()

let reset registry =
  Mutex.protect registry.mu (fun () ->
      Hashtbl.iter
        (fun _ r ->
          match r.metric with
          | Counter_m c -> Atomic.set c 0
          | Gauge_m g -> Atomic.set g 0.
          | Histogram_m h ->
              Mutex.protect h.lock (fun () ->
                  Array.fill h.bucket 0 (Array.length h.bucket) 0;
                  h.sum.(0) <- 0.))
        registry.tbl)

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"

let register ~registry ~help ~labels name make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  let labels = List.sort compare labels in
  let key = (name, labels) in
  Mutex.protect registry.mu @@ fun () ->
  match Hashtbl.find_opt registry.tbl key with
  | Some r -> r
  | None ->
      let metric = make () in
      (* A name must keep one kind across all label sets. *)
      Hashtbl.iter
        (fun (n, _) (r : registered) ->
          if n = name && kind_name r.metric <> kind_name metric then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered as a %s" name
                 (kind_name r.metric)))
        registry.tbl;
      let r = { name; labels; help; metric } in
      Hashtbl.replace registry.tbl key r;
      r

module Counter = struct
  type t = counter

  let v ?(registry = default_registry) ?(help = "") ?(labels = []) name =
    match
      (register ~registry ~help ~labels name (fun () ->
           Counter_m (Atomic.make 0)))
        .metric
    with
    | Counter_m c -> c
    | m ->
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a counter" name
             (kind_name m))

  let inc ?(by = 1) t =
    if by < 0 then invalid_arg "Metrics.Counter.inc: negative increment";
    ignore (Atomic.fetch_and_add t by : int)

  let add t by =
    if by < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add t by : int)

  let value = Atomic.get
end

module Gauge = struct
  type t = gauge

  let v ?(registry = default_registry) ?(help = "") ?(labels = []) name =
    match
      (register ~registry ~help ~labels name (fun () ->
           Gauge_m (Atomic.make 0.)))
        .metric
    with
    | Gauge_m g -> g
    | m ->
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a gauge" name
             (kind_name m))

  let set = Atomic.set

  (* [old] is the cell's own box, so the swap fails only on a race. *)
  let rec add t x =
    let old = Atomic.get t in
    if not (Atomic.compare_and_set t old (old +. x)) then add t x

  let value = Atomic.get
end

module Histogram = struct
  type t = histogram

  let log_buckets ~lo ~hi ~factor =
    if lo <= 0. || hi < lo || factor <= 1. then
      invalid_arg "Metrics.Histogram.log_buckets";
    let rec go acc b =
      if b >= hi then List.rev (b :: acc) else go (b :: acc) (b *. factor)
    in
    Array.of_list (go [] lo)

  let default_buckets = log_buckets ~lo:1e-6 ~hi:16384. ~factor:2.

  let check_bounds bounds =
    if Array.length bounds = 0 then
      invalid_arg "Metrics.Histogram: empty buckets";
    for i = 1 to Array.length bounds - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Metrics.Histogram: buckets not strictly increasing"
    done

  let v ?(registry = default_registry) ?(help = "") ?(labels = [])
      ?(buckets = default_buckets) name =
    match
      (register ~registry ~help ~labels name (fun () ->
           check_bounds buckets;
           Histogram_m
             {
               bounds = Array.copy buckets;
               bucket = Array.make (Array.length buckets + 1) 0;
               sum = [| 0. |];
               lock = Mutex.create ();
             }))
        .metric
    with
    | Histogram_m h -> h
    | m ->
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a histogram" name
             (kind_name m))

  let observe_n t x times =
    if times > 0 then begin
      let n = Array.length t.bounds in
      (* First index with x <= bounds.(i); n means the +Inf bucket. *)
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if x <= t.bounds.(mid) then bs lo mid else bs (mid + 1) hi
      in
      let i = bs 0 n in
      (* Nothing here can raise or allocate, so no [protect] is needed. *)
      Mutex.lock t.lock;
      t.bucket.(i) <- t.bucket.(i) + times;
      t.sum.(0) <- t.sum.(0) +. (x *. float_of_int times);
      Mutex.unlock t.lock
    end

  let observe t x = observe_n t x 1

  let observe_int_n t x times = observe_n t (float_of_int x) times

  (* One read under the lock: the cumulative counts per upper bound, the
     last (+Inf) of which is the count, and the sum. *)
  let snapshot t =
    let bucket, sum =
      Mutex.protect t.lock (fun () -> (Array.copy t.bucket, t.sum.(0)))
    in
    let n = Array.length t.bounds in
    for i = 1 to n do
      bucket.(i) <- bucket.(i - 1) + bucket.(i)
    done;
    ( List.init (n + 1) (fun i ->
          ((if i < n then t.bounds.(i) else infinity), bucket.(i))),
      sum,
      bucket.(n) )

  let count t =
    Mutex.protect t.lock (fun () -> Array.fold_left ( + ) 0 t.bucket)

  let sum t = Mutex.protect t.lock (fun () -> t.sum.(0))

  let bucket_counts t =
    let cumulative, _, _ = snapshot t in
    cumulative
end

(* -- Dumps ------------------------------------------------------------------ *)

let sorted_entries registry =
  Mutex.protect registry.mu (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) registry.tbl [])
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let float_str f = Printf.sprintf "%.12g" f

let bound_str b = if b = infinity then "+Inf" else float_str b

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

(* The exposition-format content type HTTP scrapers (Prometheus itself,
   `promtool check metrics`) expect alongside the text body. *)
let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let dump_prometheus ?(registry = default_registry) () =
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun r ->
      if r.name <> !last_family then begin
        last_family := r.name;
        if r.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" r.name r.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" r.name (kind_name r.metric))
      end;
      match r.metric with
      | Counter_m c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" r.name (render_labels r.labels)
               (Atomic.get c))
      | Gauge_m g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" r.name (render_labels r.labels)
               (float_str (Atomic.get g)))
      | Histogram_m h ->
          let buckets, sum, count = Histogram.snapshot h in
          List.iter
            (fun (bound, cum) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" r.name
                   (render_labels (r.labels @ [ ("le", bound_str bound) ]))
                   cum))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" r.name (render_labels r.labels)
               (float_str sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" r.name (render_labels r.labels)
               count))
    (sorted_entries registry);
  Buffer.contents buf

let to_json ?(registry = default_registry) () =
  let entry r =
    let base =
      [
        ("name", Json.Str r.name);
        ("type", Json.Str (kind_name r.metric));
        ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.labels));
      ]
    in
    let values =
      match r.metric with
      | Counter_m c -> [ ("value", Json.Num (float_of_int (Atomic.get c))) ]
      | Gauge_m g -> [ ("value", Json.Num (Atomic.get g)) ]
      | Histogram_m h ->
          let buckets, sum, count = Histogram.snapshot h in
          [
            ("count", Json.Num (float_of_int count));
            ("sum", Json.Num sum);
            ( "buckets",
              Json.Arr
                (List.map
                   (fun (bound, cum) ->
                     Json.Obj
                       [
                         ("le", Json.Str (bound_str bound));
                         ("count", Json.Num (float_of_int cum));
                       ])
                   buckets) );
          ]
    in
    Json.Obj (base @ values)
  in
  Json.Obj
    [ ("metrics", Json.Arr (List.map entry (sorted_entries registry))) ]

let dump_json ?registry () = Json.to_string (to_json ?registry ())
