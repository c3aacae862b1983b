(* Kind names by codec tag, spelled once by [Record.kind_name]; both
   readers search this table. *)
let kind_names =
  Array.init 8 (fun tag -> Record.kind_name (Codec.kind_of_tag tag (Some 0)))

(* Gen and Deliver take no peer; every other kind needs one. *)
let peerless tag = tag = 0 || tag = 7

let kind_of_fields name peer : Record.kind =
  match Array.find_index (String.equal name) kind_names with
  | Some tag when peerless tag = (peer = None) -> Codec.kind_of_tag tag peer
  | _ -> failwith (Printf.sprintf "Log_io: malformed kind %S" name)

let peer_str = function None -> "-" | Some p -> string_of_int p

let peer_of_str = function "-" -> None | s -> Some (int_of_string s)

let record_to_line (r : Record.t) =
  Printf.sprintf "r %d %s %s %d %d %.6f %d" r.node (Record.kind_name r.kind)
    (peer_str (Codec.peer_of_kind r.kind))
    r.origin r.pkt_seq r.true_time r.gseq

(* Hex-float time field: %.6f loses bits, and a streaming checkpoint must
   round-trip records byte-exactly.  [float_of_string] in [record_of_line]
   accepts both forms (and "nan"), so exact lines load like ordinary
   ones. *)
let record_to_line_exact (r : Record.t) =
  Printf.sprintf "r %d %s %s %d %d %h %d" r.node (Record.kind_name r.kind)
    (peer_str (Codec.peer_of_kind r.kind))
    r.origin r.pkt_seq r.true_time r.gseq

let record_of_line line =
  match String.split_on_char ' ' line with
  | [ "r"; node; kind; peer; origin; seq; time; gseq ] ->
      ({
         node = int_of_string node;
         kind = kind_of_fields kind (peer_of_str peer);
         origin = int_of_string origin;
         pkt_seq = int_of_string seq;
         true_time = float_of_string time;
         gseq = int_of_string gseq;
       }
        : Record.t)
  | _ -> failwith (Printf.sprintf "Log_io: malformed record line %S" line)

let fate_to_line origin seq (fate : Truth.fate) =
  Printf.sprintf "t %d %d %s %s %.6f %.6f %s" origin seq
    (Cause.name fate.cause)
    (peer_str fate.loss_node)
    fate.generated_at fate.resolved_at
    (String.concat "," (List.map string_of_int fate.path))

let fate_of_line line =
  match String.split_on_char ' ' line with
  | [ "t"; origin; seq; cause; loss_node; generated; resolved; path ] ->
      let cause =
        match Cause.of_name cause with
        | Some c -> c
        | None -> failwith (Printf.sprintf "Log_io: unknown cause %S" cause)
      in
      let path =
        if path = "" then []
        else String.split_on_char ',' path |> List.map int_of_string
      in
      ( int_of_string origin,
        int_of_string seq,
        ({
           cause;
           loss_node = peer_of_str loss_node;
           path;
           generated_at = float_of_string generated;
           resolved_at = float_of_string resolved;
         }
          : Truth.fate) )
  | _ -> failwith (Printf.sprintf "Log_io: malformed truth line %S" line)

let save oc ~sink ?truth ?(time_order = false) collected =
  Printf.fprintf oc "# refill-log v1\n";
  Printf.fprintf oc "# nodes %d\n" (Collected.n_nodes collected);
  Printf.fprintf oc "# sink %d\n" sink;
  if time_order then
    (* Arrival-order dump: what a sink collecting in real time would see.
       Streaming readers want this order — node-major order forces the
       frontier to hold nearly the whole trace. *)
    Array.iter
      (fun r -> output_string oc (record_to_line r ^ "\n"))
      (Collected.merged_by_time collected)
  else
    for node = 0 to Collected.n_nodes collected - 1 do
      Array.iter
        (fun r -> output_string oc (record_to_line r ^ "\n"))
        (Collected.node_log collected node)
    done;
  match truth with
  | None -> ()
  | Some t ->
      Truth.iter t (fun (origin, seq) fate ->
          output_string oc (fate_to_line origin seq fate ^ "\n"))

let save_file path ~sink ?truth ?time_order collected =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> save oc ~sink ?truth ?time_order collected)

let header_value line prefix =
  match String.split_on_char ' ' line with
  | [ h; key; v ] when h = "#" && key = prefix -> Some (int_of_string v)
  | _ -> None

(* -- Memory-mapped segment reader ----------------------------------------- *)

(* The one dump reader, consumed chunk by chunk: the file is
   memory-mapped ([Unix.map_file]) and record lines are parsed in place,
   decoding straight into arena columns — no input-channel buffering, no
   per-line strings, no per-record allocation except the time token
   (handed to [float_of_string] so the parse is bit-identical to
   {!record_of_line}'s).  Truth lines are read apart, by [truth]. *)
module Mseg = struct
  type map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type reader = {
    map : map;
    mlen : int;
    mutable pos : int;
    mm_n_nodes : int;
    mm_sink : int;
    mutable mm_read : int;
  }

  let geti (m : map) i = Bigarray.Array1.unsafe_get m i

  let line_end m mlen pos =
    let i = ref pos in
    while !i < mlen && geti m !i <> '\n' do
      incr i
    done;
    !i

  let substring m a b = String.init (b - a) (fun i -> geti m (a + i))

  let malformed_line m a b =
    failwith (Printf.sprintf "Log_io: malformed line %S" (substring m a b))

  let open_file path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let map, mlen =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let st = Unix.fstat fd in
          (* [map_file] refuses a directory with ENODEV; say what it is. *)
          if st.Unix.st_kind = Unix.S_DIR then
            raise (Unix.Unix_error (Unix.EISDIR, "open", path));
          let size = st.Unix.st_size in
          if size = 0 then failwith "Log_io: bad header \"\"";
          ( Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]),
            size ))
    in
    (* The three header lines are parsed as strings — they are the only
       lines that ever materialize. *)
    let pos = ref 0 in
    let next_line () =
      let e = line_end map mlen !pos in
      let s = substring map !pos e in
      pos := e + 1;
      s
    in
    let first = next_line () in
    if first <> "# refill-log v1" then
      failwith (Printf.sprintf "Log_io: bad header %S" first);
    let mm_n_nodes =
      match header_value (next_line ()) "nodes" with
      | Some n when n > 0 -> n
      | _ -> failwith "Log_io: missing nodes header"
    in
    let mm_sink =
      match header_value (next_line ()) "sink" with
      | Some s -> s
      | None -> failwith "Log_io: missing sink header"
    in
    { map; mlen; pos = !pos; mm_n_nodes; mm_sink; mm_read = 0 }

  let n_nodes r = r.mm_n_nodes

  let sink r = r.mm_sink

  let read r = r.mm_read

  (* Decode one [r ...] line spanning [a, eol) into [arena].  Cursor-based
     field parsing; any shape violation reports the whole line, like
     {!record_of_line}. *)
  let parse_record_line r arena a eol =
    let m = r.map in
    let p = ref (a + 1) in
    let fail () = malformed_line m a eol in
    let expect_space () =
      if !p >= eol || geti m !p <> ' ' then fail ();
      incr p
    in
    let parse_int () =
      let start = !p in
      let neg = !p < eol && geti m !p = '-' in
      if neg then incr p;
      if !p >= eol then fail ();
      (match geti m !p with '0' .. '9' -> () | _ -> fail ());
      let digits = !p in
      let v = ref 0 in
      let continue = ref true in
      while !continue && !p < eol do
        match geti m !p with
        | '0' .. '9' as c ->
            v := (!v * 10) + (Char.code c - Char.code '0');
            incr p
        | _ -> continue := false
      done;
      (* 19 digits may overflow an int: such a token gets
         [int_of_string]'s verdict, as in {!record_of_line}. *)
      if !p - digits >= 19 then
        match int_of_string_opt (substring m start !p) with
        | Some v -> v
        | None -> fail ()
      else if neg then - !v
      else !v
    in
    let token_end () =
      let e = ref !p in
      while !e < eol && geti m !e <> ' ' do
        incr e
      done;
      !e
    in
    let tok_eq a b s =
      b - a = String.length s
      &&
      let rec go i = i >= String.length s || (geti m (a + i) = s.[i] && go (i + 1)) in
      go 0
    in
    expect_space ();
    let node = parse_int () in
    expect_space ();
    let ka = !p in
    let kb = token_end () in
    let rec find_tag tag =
      if tag = Array.length kind_names then fail ()
      else if tok_eq ka kb kind_names.(tag) then tag
      else find_tag (tag + 1)
    in
    let tag = find_tag 0 in
    p := kb;
    expect_space ();
    (* Peer: "-" alone means none; "-3" is a negative peer. *)
    let no_peer =
      !p < eol && geti m !p = '-' && (!p + 1 >= eol || geti m (!p + 1) = ' ')
    in
    let peer =
      if no_peer then begin
        incr p;
        min_int
      end
      else parse_int ()
    in
    if peerless tag <> no_peer then fail ();
    expect_space ();
    let origin = parse_int () in
    expect_space ();
    let seq = parse_int () in
    expect_space ();
    let ta = !p in
    let tb = token_end () in
    if tb = ta then fail ();
    let time =
      match float_of_string_opt (substring m ta tb) with
      | Some f -> f
      | None -> fail ()
    in
    p := tb;
    expect_space ();
    let gseq = parse_int () in
    if !p <> eol then fail ();
    if node < 0 || node >= r.mm_n_nodes then
      failwith "Log_io: record node out of range";
    Arena.push_row arena ~node ~tag ~peer ~origin ~pkt_seq:seq ~true_time:time
      ~gseq

  let next_into r arena ~max_records =
    if max_records <= 0 then
      invalid_arg "Log_io.Mseg.next_into: max_records <= 0";
    let count = ref 0 in
    while !count < max_records && r.pos < r.mlen do
      let a = r.pos in
      let eol = line_end r.map r.mlen a in
      (if eol > a then
         match geti r.map a with
         | 'r' ->
             parse_record_line r arena a eol;
             r.mm_read <- r.mm_read + 1;
             incr count
         | 't' | '#' -> ()
         | _ -> malformed_line r.map a eol);
      r.pos <- eol + 1
    done;
    !count

  (* One pass over the whole mapping, wherever the cursor is: fates are
     never collected while records stream, so a streaming run holds none. *)
  let truth r =
    let t = Truth.create () and pos = ref 0 in
    while !pos < r.mlen do
      let eol = line_end r.map r.mlen !pos in
      if eol > !pos && geti r.map !pos = 't' then begin
        let origin, seq, fate = fate_of_line (substring r.map !pos eol) in
        Truth.record t ~origin ~seq fate
      end;
      pos := eol + 1
    done;
    if Truth.count t > 0 then Some t else None

  (* Fast-forward without decoding: classify lines and count the record
     ones.  Skipped lines are not validated beyond their leading byte —
     a resumed run already processed them. *)
  let skip r n =
    let skipped = ref 0 in
    while !skipped < n && r.pos < r.mlen do
      let a = r.pos in
      let eol = line_end r.map r.mlen a in
      (if eol > a then
         match geti r.map a with
         | 'r' ->
             r.mm_read <- r.mm_read + 1;
             incr skipped
         | 't' | '#' -> ()
         | _ -> malformed_line r.map a eol);
      r.pos <- eol + 1
    done;
    !skipped
end
