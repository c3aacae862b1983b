(** Decimal ints appended to a [Buffer] with no [Printf] format and no
    intermediate string: the writer of flow, provenance and checkpoint
    lines. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] as [string_of_int n] spells it, [min_int] included. *)

val add_field : Buffer.t -> int -> unit
(** A space, then {!add_int}: one field of a space-separated line. *)

val add_fixed6 : Buffer.t -> float -> unit
(** Append [x] exactly as [Printf.sprintf "%.6f" x] spells it: a direct
    writer where the six-decimal rounding is unambiguous, [Printf]
    otherwise (near-ties, |x| of 2^42 / 10^6 or more, NaN and
    infinities). *)
