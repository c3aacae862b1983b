type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let copy t = { state = t.state }

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = int64 t in
  (* Mix once more so that parent and child streams do not share prefixes. *)
  let child = { state = Int64.logxor seed 0xA5A5A5A5A5A5A5A5L } in
  ignore (int64 child : int64);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = max_int in
  let rec draw () =
    let r = Int64.to_int (Int64.logand (int64 t) (Int64.of_int mask)) in
    let v = r mod bound in
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let unit_float t =
  (* 53 random mantissa bits. *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t ~k ~n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  (* Floyd's algorithm, then sort. *)
  let module IS = Set.Make (Int) in
  let set = ref IS.empty in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    set := if IS.mem v !set then IS.add j !set else IS.add v !set
  done;
  IS.elements !set
