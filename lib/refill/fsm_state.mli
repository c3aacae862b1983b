(** FSM states are dense integer indices. *)

type t = int

val equal : t -> t -> bool

val compare : t -> t -> int
