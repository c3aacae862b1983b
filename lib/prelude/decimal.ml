(* Digits of a non-positive [m]: negating [min_int] would overflow. *)
let rec add_nonpos b m =
  if m <= -10 then add_nonpos b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_nonpos b (if n < 0 then n else -n)

let add_field b n =
  Buffer.add_char b ' ';
  add_int b n

(* [%.6f] without [Printf]: scale by 10^6 and round.  The scaled product
   is off the exact one by at most |y| * 2^-53, below 2^-11 while
   |y| < 2^42, so wherever the fraction sits more than 2^-10 away from
   one half, the rounding direction — and so every digit — is the one
   [Printf] derives from the exact binary value.  Near-ties (exact binary
   ties such as 0.0078125 included, which [Printf] rounds to even),
   larger magnitudes and non-finite values go to [Printf]. *)
let fast_limit = Float.ldexp 1. 42

let near_tie = Float.ldexp 1. (-10)

let add_fixed6 b x =
  let y = Float.abs x *. 1e6 in
  let f = Float.of_int (Float.to_int y) in
  let frac = y -. f in
  if
    Float.is_finite x && y < fast_limit
    && Float.abs (frac -. 0.5) > near_tie
  then begin
    let m = Float.to_int f + if frac > 0.5 then 1 else 0 in
    if Float.sign_bit x then Buffer.add_char b '-';
    add_nonpos b (-(m / 1_000_000));
    Buffer.add_char b '.';
    let frac = m mod 1_000_000 in
    let rec digits d =
      if d > 0 then begin
        Buffer.add_char b (Char.unsafe_chr (48 + (frac / d mod 10)));
        digits (d / 10)
      end
    in
    digits 100_000
  end
  else Printf.bprintf b "%.6f" x
