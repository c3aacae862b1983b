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
