type 'a entry = { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* [before a b] decides heap order: smaller priority first, then FIFO. *)
let before a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t entry =
  let capacity = max 16 (2 * Array.length t.data) in
  let data = Array.make capacity entry in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push_entry t entry =
  if t.size = Array.length t.data then grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let push t ~priority value =
  let entry = { priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  push_entry t entry

let peek t =
  if t.size = 0 then None
  else
    let e = t.data.(0) in
    Some (e.priority, e.value)

let pop t =
  if t.size = 0 then None
  else begin
    let e = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (e.priority, e.value)
  end

let to_sorted_list t =
  let copy =
    { data = Array.sub t.data 0 t.size; size = t.size; next_seq = t.next_seq }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
