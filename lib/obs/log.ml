type level = Quiet | Info | Debug

let current = ref Info

let set_level l = current := l

let level () = !current

let ppf = Format.err_formatter

let info fmt =
  match !current with
  | Info | Debug -> Format.fprintf ppf (fmt ^^ "@.")
  | Quiet -> Format.ifprintf ppf (fmt ^^ "@.")

let debug fmt =
  match !current with
  | Debug -> Format.fprintf ppf ("debug: " ^^ fmt ^^ "@.")
  | Info | Quiet -> Format.ifprintf ppf ("debug: " ^^ fmt ^^ "@.")

let error fmt = Format.fprintf ppf ("refill: " ^^ fmt ^^ "@.")
