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

let peer_of_str = function "-" -> None | s -> Some (int_of_string s)

(* One record line up to its time field, which [add_time] writes. *)
let add_record_line ~add_time b (r : Record.t) =
  Buffer.add_char b 'r';
  Prelude.Decimal.add_field b r.node;
  Buffer.add_char b ' ';
  Buffer.add_string b (Record.kind_name r.kind);
  (match Codec.peer_of_kind r.kind with
  | None -> Buffer.add_string b " -"
  | Some p -> Prelude.Decimal.add_field b p);
  Prelude.Decimal.add_field b r.origin;
  Prelude.Decimal.add_field b r.pkt_seq;
  Buffer.add_char b ' ';
  add_time b r.true_time;
  Prelude.Decimal.add_field b r.gseq

let render add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let record_to_line = render (add_record_line ~add_time:Prelude.Decimal.add_fixed6)

(* Hex-float time field: %.6f loses bits, and a streaming checkpoint must
   round-trip records byte-exactly.  [float_of_string] in [record_of_line]
   accepts both forms (and "nan"), so exact lines load like ordinary
   ones. *)
let add_record_line_exact =
  add_record_line ~add_time:(fun b t -> Printf.bprintf b "%h" t)

let record_to_line_exact = render add_record_line_exact

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

let add_fate_line b origin seq (fate : Truth.fate) =
  Buffer.add_char b 't';
  Prelude.Decimal.add_field b origin;
  Prelude.Decimal.add_field b seq;
  Buffer.add_char b ' ';
  Buffer.add_string b (Cause.name fate.cause);
  (match fate.loss_node with
  | None -> Buffer.add_string b " -"
  | Some n -> Prelude.Decimal.add_field b n);
  Buffer.add_char b ' ';
  Prelude.Decimal.add_fixed6 b fate.generated_at;
  Buffer.add_char b ' ';
  Prelude.Decimal.add_fixed6 b fate.resolved_at;
  Buffer.add_char b ' ';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Prelude.Decimal.add_int b n)
    fate.path

(* Every line goes through one buffer, handed to the channel at each
   64 KiB. *)
let save oc ~sink ?truth ?(time_order = false) collected =
  let b = Buffer.create 65536 in
  let end_line () =
    Buffer.add_char b '\n';
    if Buffer.length b >= 65536 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  let record r =
    add_record_line ~add_time:Prelude.Decimal.add_fixed6 b r;
    end_line ()
  in
  Buffer.add_string b "# refill-log v1\n# nodes";
  Prelude.Decimal.add_field b (Collected.n_nodes collected);
  Buffer.add_string b "\n# sink";
  Prelude.Decimal.add_field b sink;
  end_line ();
  if time_order then
    (* Arrival-order dump: what a sink collecting in real time would see.
       Streaming readers want this order — node-major order forces the
       frontier to hold nearly the whole trace. *)
    Array.iter record (Collected.merged_by_time collected)
  else
    for node = 0 to Collected.n_nodes collected - 1 do
      Array.iter record (Collected.node_log collected node)
    done;
  Option.iter
    (fun t ->
      Truth.iter t (fun (origin, seq) fate ->
          add_fate_line b origin seq fate;
          end_line ()))
    truth;
  Buffer.output_buffer oc b

let save_file path ~sink ?truth ?time_order collected =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> save oc ~sink ?truth ?time_order collected)

(* -- Memory-mapped segment reader ----------------------------------------- *)

(* The one dump reader, consumed chunk by chunk: the file is
   memory-mapped ([Unix.map_file]) and each line is parsed in place by
   one cursor ([cur], up to [eol]) into arena columns, with no per-line
   string, closure or ref; a record line allocates only its boxed time.
   Truth lines are read apart, by [truth]. *)
module Mseg = struct
  type map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type reader = {
    map : map;
    mlen : int;
    mutable pos : int;  (* start of the next line *)
    mutable cur : int;  (* the field cursor, in the line being parsed *)
    mutable eol : int;  (* that line's end *)
    mutable mm_n_nodes : int;
    mutable mm_sink : int;
    mutable mm_read : int;
  }

  (* A field broke the line's grammar; caught once per line, which is
     then reported whole. *)
  exception Malformed

  let bad () = raise_notrace Malformed

  let geti (m : map) i = Bigarray.Array1.unsafe_get m i

  let rec line_end m mlen i =
    if i < mlen && geti m i <> '\n' then line_end m mlen (i + 1) else i

  let substring m a b = String.init (b - a) (fun i -> geti m (a + i))

  let malformed_line m a b =
    failwith (Printf.sprintf "Log_io: malformed line %S" (substring m a b))

  (* The cursor to the line at [r.pos], and [r.pos] past it. *)
  let start_line r =
    let eol = line_end r.map r.mlen r.pos in
    r.cur <- r.pos;
    r.eol <- eol;
    r.pos <- eol + 1

  let space r =
    if r.cur >= r.eol || geti r.map r.cur <> ' ' then bad ();
    r.cur <- r.cur + 1

  let rec token_end r e =
    if e < r.eol && geti r.map e <> ' ' then token_end r (e + 1) else e

  (* The token at the cursor, as a string (header and truth lines). *)
  let token r =
    let a = r.cur in
    r.cur <- token_end r a;
    substring r.map a r.cur

  (* Accumulate onto [v] the digits from [p]; the cursor stops after. *)
  let rec digits r p v =
    let c = if p < r.eol then geti r.map p else ' ' in
    if c >= '0' && c <= '9' then digits r (p + 1) ((v * 10) + Char.code c - 48)
    else begin
      r.cur <- p;
      v
    end

  (* Optionally signed decimal digits.  19 digits may overflow an int:
     such a token gets [int_of_string]'s verdict, as in
     {!record_of_line}. *)
  let int r =
    let a = r.cur in
    let d = if a < r.eol && geti r.map a = '-' then a + 1 else a in
    let v = digits r d 0 in
    if r.cur = d then bad ()
    else if r.cur - d >= 19 then
      match int_of_string_opt (substring r.map a r.cur) with
      | Some v -> v
      | None -> bad ()
    else if d > a then -v
    else v

  (* "-" alone: no peer ("-3" is a negative one); the cursor moves past
     it. *)
  let dash r =
    let d =
      r.cur < r.eol
      && geti r.map r.cur = '-'
      && (r.cur + 1 >= r.eol || geti r.map (r.cur + 1) = ' ')
    in
    if d then r.cur <- r.cur + 1;
    d

  let rec tok_eq m a s i =
    i >= String.length s || (geti m (a + i) = s.[i] && tok_eq m a s (i + 1))

  let rec kind_tag r e tag =
    if tag = Array.length kind_names then bad ()
    else
      let s = kind_names.(tag) in
      if e - r.cur = String.length s && tok_eq r.map r.cur s 0 then tag
      else kind_tag r e (tag + 1)

  let pow10 = Array.init 19 (fun k -> float_of_string ("1e" ^ string_of_int k))

  (* The time token [a, e).  For [-]digits.digits with k >= 1 fraction
     digits, at most 18 digits (no overflow) and a mantissa m (the
     digits, without the point) of at most 2^53, m and 10^k are exact, so
     [float m /. 10^k] is the correctly rounded quotient: the double
     [strtod] returns (Clinger's fast path).  Any other token goes to
     [float_of_string_opt], so tokens and bits are [record_of_line]'s. *)
  let time r a e =
    let d = if geti r.map a = '-' then a + 1 else a in
    let hi = digits r d 0 in
    let dot = r.cur and k = e - r.cur - 1 in
    let v =
      if dot > d && k >= 1 && dot - d + k <= 18 && geti r.map dot = '.' then
        digits r (dot + 1) hi
      else -1
    in
    if v >= 0 && v <= 1 lsl 53 && r.cur = e then
      let f = Float.of_int v /. Array.unsafe_get pow10 k in
      if d > a then -.f else f
    else begin
      r.cur <- e;
      match float_of_string_opt (substring r.map a e) with
      | Some f -> f
      | None -> bad ()
    end

  (* "# <key> <int>", the int in the record lines' grammar. *)
  let header_int r key =
    start_line r;
    match
      if token r <> "#" then bad ();
      space r;
      if token r <> key then bad ();
      space r;
      let v = int r in
      if r.cur <> r.eol then bad ();
      v
    with
    | v -> v
    | exception Malformed -> failwith ("Log_io: missing " ^ key ^ " header")

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
    let r =
      { map; mlen; pos = 0; cur = 0; eol = 0; mm_n_nodes = 0; mm_sink = 0;
        mm_read = 0 }
    in
    start_line r;
    let first = substring map r.cur r.eol in
    if first <> "# refill-log v1" then
      failwith (Printf.sprintf "Log_io: bad header %S" first);
    r.mm_n_nodes <- header_int r "nodes";
    if r.mm_n_nodes <= 0 then failwith "Log_io: missing nodes header";
    r.mm_sink <- header_int r "sink";
    r

  let n_nodes r = r.mm_n_nodes

  let sink r = r.mm_sink

  let read r = r.mm_read

  (* Decode the [r ...] line at the cursor into [arena]; any field
     breaking the grammar reports the whole line, like
     {!record_of_line}. *)
  let parse_record_line r arena =
    let a = r.cur in
    match
      r.cur <- a + 1;
      space r;
      let node = int r in
      space r;
      let ke = token_end r r.cur in
      let tag = kind_tag r ke 0 in
      r.cur <- ke;
      space r;
      let no_peer = dash r in
      let peer = if no_peer then min_int else int r in
      if peerless tag <> no_peer then bad ();
      space r;
      let origin = int r in
      space r;
      let seq = int r in
      space r;
      let te = token_end r r.cur in
      if te = r.cur then bad ();
      let time = time r r.cur te in
      space r;
      let gseq = int r in
      if r.cur <> r.eol then bad ();
      if node < 0 || node >= r.mm_n_nodes then
        failwith "Log_io: record node out of range";
      Arena.push_row arena ~node ~tag ~peer ~origin ~pkt_seq:seq
        ~true_time:time ~gseq
    with
    | () -> ()
    | exception Malformed -> malformed_line r.map a r.eol

  (* Up to [n] further record lines, each decoded into the arena, or with
     [None] only counted: not validated beyond their leading byte, since
     a resumed run already processed them. *)
  let records r arena n =
    let count = ref 0 in
    while !count < n && r.pos < r.mlen do
      start_line r;
      if r.eol > r.cur then
        match geti r.map r.cur with
        | 'r' ->
            (match arena with Some a -> parse_record_line r a | None -> ());
            r.mm_read <- r.mm_read + 1;
            incr count
        | 't' | '#' -> ()
        | _ -> malformed_line r.map r.cur r.eol
    done;
    !count

  let next_into r arena ~max_records =
    if max_records <= 0 then
      invalid_arg "Log_io.Mseg.next_into: max_records <= 0";
    records r (Some arena) max_records

  let skip r n = records r None n

  (* Record into [t] the truth line at the cursor: [t <origin> <seq>
     <cause> <loss-node|-> <generated> <resolved> <path,csv>], times by
     [float_of_string]. *)
  let add_fate r t =
    let a = r.cur in
    let float r =
      match float_of_string_opt (token r) with Some f -> f | None -> bad ()
    in
    let rec path r =
      let n = int r in
      if r.cur < r.eol && geti r.map r.cur = ',' then begin
        r.cur <- r.cur + 1;
        n :: path r
      end
      else [ n ]
    in
    let field f =
      space r;
      f r
    in
    match
      r.cur <- a + 1;
      let origin = field int in
      let seq = field int in
      let name = field token in
      let cause =
        match Cause.of_name name with
        | Some c -> c
        | None -> failwith (Printf.sprintf "Log_io: unknown cause %S" name)
      in
      let loss_node = field (fun r -> if dash r then None else Some (int r)) in
      let generated_at = field float in
      let resolved_at = field float in
      let path = field (fun r -> if r.cur = r.eol then [] else path r) in
      if r.cur <> r.eol then bad ();
      Truth.record t ~origin ~seq
        ({ cause; loss_node; path; generated_at; resolved_at } : Truth.fate)
    with
    | () -> ()
    | exception Malformed ->
        failwith
          (Printf.sprintf "Log_io: malformed truth line %S"
             (substring r.map a r.eol))

  (* One pass over the whole mapping, on a cursor of its own: fates are
     never collected while records stream, so a streaming run holds
     none. *)
  let truth r =
    let t = Truth.create () and c = { r with pos = 0 } in
    while c.pos < c.mlen do
      start_line c;
      if c.eol > c.cur && geti c.map c.cur = 't' then add_fate c t
    done;
    if Truth.count t > 0 then Some t else None
end
