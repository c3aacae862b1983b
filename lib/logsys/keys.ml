type 'a t = {
  mutable origins : int array;
  mutable seqs : int array;
  mutable vals : 'a array;  (* [absent] in every empty slot *)
  mutable used : Bytes.t;
  mutable size : int;
  absent : 'a;
}

let make cap absent =
  {
    origins = Array.make cap 0;
    seqs = Array.make cap 0;
    vals = Array.make cap absent;
    used = Bytes.make cap '\000';
    size = 0;
    absent;
  }

let create ?(size = 0) absent =
  let cap = ref 64 in
  while !cap < 2 * (size + 1) do
    cap := 2 * !cap
  done;
  make !cap absent

let length t = t.size

(* Mixes both fields and keeps the product's high bits. *)
let home t o s =
  ((((o * 0x1F3D5B79) + s) * 0x1E3779B97F4A7C15) lsr 33)
  land (Array.length t.origins - 1)

let occupied t i = Bytes.unsafe_get t.used i <> '\000'

let find t o s =
  let mask = Array.length t.origins - 1 in
  let i = ref (home t o s) in
  while occupied t !i && not (t.origins.(!i) = o && t.seqs.(!i) = s) do
    i := (!i + 1) land mask
  done;
  if occupied t !i then !i else -1

let value t i = t.vals.(i)

(* Place a key known to be absent, without growing. *)
let place t o s v =
  let mask = Array.length t.origins - 1 in
  let i = ref (home t o s) in
  while occupied t !i do
    i := (!i + 1) land mask
  done;
  Bytes.unsafe_set t.used !i '\001';
  t.origins.(!i) <- o;
  t.seqs.(!i) <- s;
  t.vals.(!i) <- v;
  t.size <- t.size + 1

let add t o s v =
  if 2 * (t.size + 1) > Array.length t.origins then begin
    let g = make (2 * Array.length t.origins) t.absent in
    for i = 0 to Array.length t.origins - 1 do
      if occupied t i then place g t.origins.(i) t.seqs.(i) t.vals.(i)
    done;
    t.origins <- g.origins;
    t.seqs <- g.seqs;
    t.vals <- g.vals;
    t.used <- g.used
  end;
  place t o s v

let replace t o s v =
  let i = find t o s in
  if i >= 0 then t.vals.(i) <- v else add t o s v

(* Empty slot [i], shifting back each later entry of its probe run whose
   home is not in the cyclic range (hole, j]. *)
let remove t i =
  let mask = Array.length t.origins - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while occupied t !j do
    let h = home t t.origins.(!j) t.seqs.(!j) in
    let stays =
      if !hole < !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      t.origins.(!hole) <- t.origins.(!j);
      t.seqs.(!hole) <- t.seqs.(!j);
      t.vals.(!hole) <- t.vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Bytes.unsafe_set t.used !hole '\000';
  t.vals.(!hole) <- t.absent;
  t.size <- t.size - 1

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.origins - 1 do
    if occupied t i then acc := f t.origins.(i) t.seqs.(i) t.vals.(i) !acc
  done;
  !acc
