(** Decimal ints appended to a [Buffer] with no [Printf] format and no
    intermediate string: the writer of flow, provenance and checkpoint
    lines. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] as [string_of_int n] spells it, [min_int] included. *)

val add_field : Buffer.t -> int -> unit
(** A space, then {!add_int}: one field of a space-separated line. *)
